open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* A single-slot exchanger (the core of Scherer-Lea-Scott's elimination
   channel [Scherer, Lea & Scott'05]), with the paper's helping discipline
   (Section 4.2) realised operationally.

   Protocol.  The slot holds [Null] or a pointer to an *offer*
   [{value; eid; tid; hole}].  An arriving thread:

   - sees [Null]: publishes its own offer with a release CAS (the release
     carries its views — this is the helpee's contribution [V1, M0]), then
     tries to *retract* by CASing [hole] from [Null] to [TAKEN]; retract
     success is the commit point of a failed exchange [Exchange (v, Null)];
     retract failure means a helper matched first — the acquire read of the
     helper's cell in [hole] delivers the completed graph (the paper's
     *local postcondition*: only now does the helpee observe both events);

   - sees an offer: becomes the *helper*: it CASes [hole] from [Null] to
     its own cell; on success this single instruction is the commit point
     of BOTH exchanges — helpee first, then helper — with symmetric so
     edges.  The helpee's event carries the offer message's physical and
     logical views (captured when the helper read the slot — view-explicit
     reasoning, Section 5.2), and the helper's own tid is replaced by the
     helpee's, read from the offer.

   Matched pairs therefore commit in one atomic machine step: no third
   commit can observe the intermediate state, which is exactly the
   atomicity property the elimination stack's LIFO argument needs. *)

(* Offer block: [0] value, [1] event id, [2] tid, [3] hole.
   Helper cell: [0] value. *)
type t = { slot : Loc.t; graph : Graph.t; fuel : int }

let default_fuel = 8

let create ?(fuel = default_fuel) ?graph m ~name =
  (* [graph] lets several slots share one event graph — the array of
     exchangers (Section 4.1's parenthetical) is then just more slots
     feeding the same graph and the same consistency conditions. *)
  let graph =
    match graph with Some g -> g | None -> Machine.new_graph m ~name
  in
  let slot = Machine.alloc m ~name ~init:Value.Null 1 in
  { slot; graph; fuel }

let graph t = t.graph

(* One attempt at exchanging on this slot: [Some v2] = done (with [Null]
   for a committed failed exchange), [None] = contention, try again
   (possibly elsewhere — the array rotates slots between attempts). *)
let exchange_attempt ?(extra = fun _ -> []) t ~e1 ~my_tid v1 =
  let obj = Graph.obj t.graph in
  let attempt () =
      let* s = Prog.load_explicit ~site:"exchanger.slot_load" t.slot Mode.Acq in
      match s.Prog.value with
      | Value.Null -> (
          (* Publish an offer. *)
          let* o = Prog.alloc ~name:"offer" 4 in
          let* () = Prog.store ~site:"exchanger.offer.init_val" (Loc.shift o 0) v1 Mode.Na in
          let* () = Prog.store ~site:"exchanger.offer.init_eid" (Loc.shift o 1) (Value.Int e1) Mode.Na in
          let* () = Prog.store ~site:"exchanger.offer.init_tid" (Loc.shift o 2) (Value.Int my_tid) Mode.Na in
          let* () = Prog.store ~site:"exchanger.offer.init_hole" (Loc.shift o 3) Value.Null Mode.Na in
          let* _, ok =
            Prog.cas ~site:"exchanger.offer.publish_cas" t.slot ~expected:Value.Null ~desired:(Value.Ptr o) Mode.Rel
          in
          if not ok then Prog.return None (* slot got occupied; retry *)
          else
            (* Give a partner a chance, then retract.  The retract CAS
               decides atomically: success = the exchange failed; failure =
               a helper already matched us. *)
            let* () = Prog.yield in
            let fail_commit =
              Commit.compose
                (fun (r : Commit.op_result) ->
                  if r.success then
                    [ Commit.spec ~obj [ Commit.ev e1 (Event.Exchange (v1, Value.Null)) ] ]
                  else [])
                extra
            in
            let* r =
              Prog.cas_explicit ~site:"exchanger.retract_cas" (Loc.shift o 3)
                ~expected:Value.Null ~desired:Value.Taken Mode.Acq
                ~commit:fail_commit
            in
            if r.Prog.success then
              (* Failed exchange; clear the slot (best effort). *)
              let* _ =
                Prog.cas t.slot ~expected:(Value.Ptr o) ~desired:Value.Null
                  Mode.Rlx
              in
              Prog.return (Some Value.Null)
            else
              (* Matched: the failed CAS acquire-read the helper's cell;
                 both events are already in the graph. *)
              match r.Prog.value with
              | Value.Ptr c ->
                  let* v2 = Prog.load ~site:"exchanger.helper_cell_load" (Loc.shift c 0) Mode.Na in
                  let* _ =
                    Prog.cas t.slot ~expected:(Value.Ptr o) ~desired:Value.Null
                      Mode.Rlx
                  in
                  Prog.return (Some v2)
              | w ->
                  failwith
                    (Format.asprintf "exchanger: corrupt hole %a" Value.pp w))
      | Value.Ptr o -> (
          (* Someone's offer is up: try to help. *)
          let* v2 = Prog.load ~site:"exchanger.help.val_load" (Loc.shift o 0) Mode.Na in
          let* e2v = Prog.load ~site:"exchanger.help.eid_load" (Loc.shift o 1) Mode.Na in
          let* tid2v = Prog.load ~site:"exchanger.help.tid_load" (Loc.shift o 2) Mode.Na in
          let e2 = Value.to_int_exn e2v and tid2 = Value.to_int_exn tid2v in
          let* c = Prog.alloc ~name:"cell" 1 in
          let* () = Prog.store ~site:"exchanger.help.cell_init" c v1 Mode.Na in
          let offer_view = s.Prog.view and offer_lview = s.Prog.lview in
          let match_commit =
            Commit.compose
              (fun (r : Commit.op_result) ->
                if r.success then
                  [
                    Commit.spec ~obj
                      [
                        (* Helpee first: its views are the offer's, plus
                           both events (Figure 5: e1, e2 ∈ M'). *)
                        Commit.ev e2
                          (Event.Exchange (v2, v1))
                          ~view:offer_view
                          ~lview:(Lview.add e1 (Lview.add e2 offer_lview))
                          ~tid:tid2;
                        (* Then the helper's own event. *)
                        Commit.ev e1 (Event.Exchange (v1, v2));
                      ]
                      ~so:[ (e1, e2); (e2, e1) ];
                  ]
                else [])
              extra
          in
          let* _, ok =
            Prog.cas ~site:"exchanger.help.match_cas" (Loc.shift o 3)
              ~expected:Value.Null ~desired:(Value.Ptr c) Mode.AcqRel
              ~commit:match_commit
          in
          if ok then
            let* _ =
              Prog.cas t.slot ~expected:(Value.Ptr o) ~desired:Value.Null
                Mode.Rlx
            in
            Prog.return (Some v2)
          else Prog.return None (* lost the race to another helper; retry *))
      | w -> failwith (Format.asprintf "exchanger: corrupt slot %a" Value.pp w)
  in
  attempt ()

let exchange ?extra t v1 =
  if Value.equal v1 Value.Null then invalid_arg "Exchanger.exchange: bottom";
  let* e1 = Prog.reserve in
  let* my_tid = Prog.tid in
  Prog.with_fuel ~fuel:t.fuel ~what:"exchange" (fun () ->
      exchange_attempt ?extra t ~e1 ~my_tid v1)

let instantiate m ~name : Iface.exchanger =
  let t = create m ~name in
  {
    Iface.x_graph = t.graph;
    exchange = (fun v -> exchange t v);
  }
