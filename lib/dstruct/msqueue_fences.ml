open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* Michael-Scott queue, fence-based: the same algorithm as {!Msqueue} but
   with *relaxed* accesses and explicit release/acquire fences — the other
   half of ORC11's synchronisation vocabulary (iRC11 supports both; the
   fence rules are Section 5's F_rel/F_acq).  Semantically equivalent to
   the rel/acq version: a release fence before the linking CAS publishes
   the node fields and the logical view through the CAS's (relaxed)
   message; an acquire fence after each relaxed pointer load acquires
   them.  The experiments check it against the same LATabs-hb specs the
   access-based version satisfies — fence-based and access-based
   synchronisation are interchangeable at the spec level.

   One subtlety mirrors the access-based version's head-CAS lesson: the
   dequeue's head CAS needs a release fence before it, so that later
   dequeuers (who reach nodes through head) inherit the dequeuer's
   observations; CAS message views also inherit their read message's views
   (release sequences), which carries the chain through.  The same holds
   for the two tail CASes ([tail_swing], [tail_help]), which the
   access-based version makes [AcqRel]: without a release fence before
   them, an enqueuer that finds a node through [tail] does not inherit
   the view of the thread that swung it there, and its own dequeue can
   then read the sentinel's [next] as the stale null (most-general client
   [i|ir] at depth 2). *)

let fval p = Loc.shift (Value.to_loc_exn p) 0
let feid p = Loc.shift (Value.to_loc_exn p) 1
let fnext p = Loc.shift (Value.to_loc_exn p) 2

type t = { head : Loc.t; tail : Loc.t; graph : Graph.t; fuel : int }

let default_fuel = 32

let create ?(fuel = default_fuel) m ~name =
  let graph = Machine.new_graph m ~name in
  let q = Machine.alloc m ~name 2 in
  let sentinel = Machine.alloc m ~name:(name ^ ".sent") 3 in
  ignore
    (Machine.solo m
       (Prog.returning_unit
          (let* () = Prog.store (Loc.shift sentinel 0) (Value.Int 0) Mode.Na in
           let* () = Prog.store (Loc.shift sentinel 1) (Value.Int (-1)) Mode.Na in
           let* () = Prog.store (Loc.shift sentinel 2) Value.Null Mode.Na in
           let* () = Prog.store (Loc.shift q 0) (Value.Ptr sentinel) Mode.Na in
           Prog.store (Loc.shift q 1) (Value.Ptr sentinel) Mode.Na)));
  { head = Loc.shift q 0; tail = Loc.shift q 1; graph; fuel }

let graph t = t.graph

(* A relaxed load followed by an acquire fence: the fence-based acquire.
   [site] labels the load; the fence gets the same label with a ".fence"
   suffix so the audit can weaken or drop it independently. *)
let load_acq_fence ?site l =
  let fsite = Option.map (fun s -> s ^ ".fence") site in
  let* v = Prog.load ?site l Mode.Rlx in
  let* () = Prog.fence ?site:fsite Mode.F_acq in
  Prog.return v

let enq ?(extra = fun _ -> []) t v =
  let* e = Prog.reserve in
  let* n = Prog.alloc ~name:"node" 3 in
  let np = Value.Ptr n in
  let* () = Prog.store ~site:"msqueue_f.enq.init_val" (Loc.shift n 0) v Mode.Na in
  let* () =
    Prog.store ~site:"msqueue_f.enq.init_eid" (Loc.shift n 1) (Value.Int e)
      Mode.Na
  in
  let* () =
    Prog.store ~site:"msqueue_f.enq.init_next" (Loc.shift n 2) Value.Null
      Mode.Na
  in
  let commit =
    Commit.compose
      (Commit.on_success ~obj:(Graph.obj t.graph) (fun _ -> (e, Event.Enq v)))
      extra
  in
  Prog.with_fuel ~fuel:t.fuel ~what:"msf-enq" (fun () ->
      let* tl = load_acq_fence ~site:"msqueue_f.enq.tail_load" t.tail in
      let* nx = load_acq_fence ~site:"msqueue_f.enq.next_load" (fnext tl) in
      match nx with
      | Value.Null ->
          (* The fence-based release: publish node fields + logical view
             through the (relaxed) linking CAS. *)
          let* () = Prog.fence ~site:"msqueue_f.enq.publish_fence" Mode.F_rel in
          let* _, ok =
            Prog.cas ~site:"msqueue_f.enq.link_cas" (fnext tl)
              ~expected:Value.Null ~desired:np Mode.Rlx ~commit
          in
          if ok then
            (* Like the linking CAS, the tail swing publishes: a thread
               that reaches the node through [tail] must inherit what
               this thread saw, or it can link after the node and then
               dequeue through a stale [next] of an older node. *)
            let* () =
              Prog.fence ~site:"msqueue_f.enq.tail_swing_fence" Mode.F_rel
            in
            let* _ =
              Prog.cas ~site:"msqueue_f.enq.tail_swing" t.tail ~expected:tl
                ~desired:np Mode.Rlx
            in
            Prog.return (Some ())
          else Prog.return None
      | _ ->
          let* () =
            Prog.fence ~site:"msqueue_f.enq.tail_help_fence" Mode.F_rel
          in
          let* _ =
            Prog.cas ~site:"msqueue_f.enq.tail_help" t.tail ~expected:tl
              ~desired:nx Mode.Rlx
          in
          Prog.return None)

let deq ?(extra = fun _ -> []) t =
  let* d = Prog.reserve in
  let obj = Graph.obj t.graph in
  Prog.with_fuel ~fuel:t.fuel ~what:"msf-deq" (fun () ->
      let* h = load_acq_fence ~site:"msqueue_f.deq.head_load" t.head in
      let empty_commit =
        Commit.compose
          (fun (r : Commit.op_result) ->
            if Value.equal r.value Value.Null then
              [ Commit.spec ~obj [ Commit.ev d Event.EmpDeq ] ]
            else [])
          extra
      in
      let* nx =
        Prog.load ~site:"msqueue_f.deq.next_load" (fnext h) Mode.Rlx
          ~commit:empty_commit
      in
      let* () = Prog.fence ~site:"msqueue_f.deq.next_load.fence" Mode.F_acq in
      match nx with
      | Value.Null -> Prog.return (Some Value.Null)
      | _ ->
          let* v = Prog.load ~site:"msqueue_f.deq.val_load" (fval nx) Mode.Na in
          let* ev =
            Prog.load ~site:"msqueue_f.deq.eid_load" (feid nx) Mode.Na
          in
          let e = Value.to_int_exn ev in
          let commit =
            Commit.compose
              (Commit.on_success ~obj
                 ~so:(fun _ -> [ (e, d) ])
                 (fun _ -> (d, Event.Deq v)))
              extra
          in
          (* Release what we observed to later dequeuers through head. *)
          let* () = Prog.fence ~site:"msqueue_f.deq.publish_fence" Mode.F_rel in
          let* _, ok =
            Prog.cas ~site:"msqueue_f.deq.head_cas" t.head ~expected:h
              ~desired:nx Mode.Rlx ~commit
          in
          if ok then Prog.return (Some v) else Prog.return None)

let instantiate : Iface.queue_factory =
  {
    Iface.q_name = "ms-queue-fences";
    make_queue =
      (fun m ~name ->
        let t = create m ~name in
        {
          Iface.q_kind = "ms-queue-fences";
          q_graph = t.graph;
          enq = (fun v -> enq t v);
          deq = (fun () -> deq t);
        });
  }
