open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* Michael-Scott queue [Michael & Scott, PODC'96] in pure release-acquire,
   as verified in the paper against the LATabs-hb specs (Section 3.2:
   "a purely release-acquire implementation of the Michael-Scott queue
   satisfies the LATabs-hb specs").

   Access modes: purely release-acquire — every CAS is acq-rel and every
   pointer load is an acquire.  The release side of the dequeue's head CAS
   matters: a later dequeuer reaches nodes *through head*, not through the
   enqueuers' next-chain, so head must carry the dequeuer's accumulated
   observations (dropping it to a plain acquire CAS lets a second dequeuer
   read a node's uninitialised next field — our race detector catches
   exactly this if you try).

   Commit points:
   - enqueue: the successful CAS on the predecessor's [next] field;
   - successful dequeue: the successful CAS on [head];
   - empty dequeue: the acquire load of [head->next] that returned null.

   The same body with the enqueue's three CASes on [next] and [tail]
   relaxed is the registry's deliberately broken [ms-weak] fixture
   ({!relaxed_publication}): a relaxed link publishes a message that
   carries no view, so the dequeuer's plain loads of the node's fields
   race with the enqueuer's initialisation. *)

(* Node block: [0] value, [1] event id, [2] next. *)
let fval p = Loc.shift (Value.to_loc_exn p) 0
let feid p = Loc.shift (Value.to_loc_exn p) 1
let fnext p = Loc.shift (Value.to_loc_exn p) 2

type t = {
  head : Loc.t;
  tail : Loc.t;
  graph : Graph.t;
  fuel : int;
  publish : Mode.access;  (** the enqueue's link, swing and help CASes *)
}

let default_fuel = 32

let build ~publish ?(fuel = default_fuel) m ~name =
  let graph = Machine.new_graph m ~name in
  let q = Machine.alloc m ~name 2 in
  let sentinel = Machine.alloc m ~name:(name ^ ".sent") 3 in
  let () =
    ignore
      (Machine.solo m
         (Prog.returning_unit
            (let* () = Prog.store (Loc.shift sentinel 0) (Value.Int 0) Mode.Na in
             let* () = Prog.store (Loc.shift sentinel 1) (Value.Int (-1)) Mode.Na in
             let* () = Prog.store (Loc.shift sentinel 2) Value.Null Mode.Na in
             let* () = Prog.store (Loc.shift q 0) (Value.Ptr sentinel) Mode.Na in
             Prog.store (Loc.shift q 1) (Value.Ptr sentinel) Mode.Na)))
  in
  { head = Loc.shift q 0; tail = Loc.shift q 1; graph; fuel; publish }

let create = build ~publish:Mode.AcqRel
let graph t = t.graph

let enq ?(extra = fun _ -> []) t v =
  let* e = Prog.reserve in
  let* n = Prog.alloc ~name:"node" 3 in
  let np = Value.Ptr n in
  let* () = Prog.store ~site:"msqueue.enq.init_val" (Loc.shift n 0) v Mode.Na in
  let* () =
    Prog.store ~site:"msqueue.enq.init_eid" (Loc.shift n 1) (Value.Int e)
      Mode.Na
  in
  let* () =
    Prog.store ~site:"msqueue.enq.init_next" (Loc.shift n 2) Value.Null Mode.Na
  in
  let commit =
    Commit.compose
      (Commit.on_success ~obj:(Graph.obj t.graph) (fun _ -> (e, Event.Enq v)))
      extra
  in
  Prog.with_fuel ~fuel:t.fuel ~what:"ms-enq" (fun () ->
      let* tl = Prog.load ~site:"msqueue.enq.tail_load" t.tail Mode.Acq in
      let* nx = Prog.load ~site:"msqueue.enq.next_load" (fnext tl) Mode.Acq in
      match nx with
      | Value.Null ->
          let* _, ok =
            Prog.cas ~site:"msqueue.enq.link_cas" (fnext tl)
              ~expected:Value.Null ~desired:np t.publish ~commit
          in
          if ok then
            (* Swing the tail (best effort; others may help). *)
            let* _ =
              Prog.cas ~site:"msqueue.enq.tail_swing" t.tail ~expected:tl
                ~desired:np t.publish
            in
            Prog.return (Some ())
          else Prog.return None
      | _ ->
          (* Tail is lagging: help swing it, then retry. *)
          let* _ =
            Prog.cas ~site:"msqueue.enq.tail_help" t.tail ~expected:tl
              ~desired:nx t.publish
          in
          Prog.return None)

let deq ?(extra = fun _ -> []) t =
  let* d = Prog.reserve in
  let obj = Graph.obj t.graph in
  Prog.with_fuel ~fuel:t.fuel ~what:"ms-deq" (fun () ->
      let* h = Prog.load ~site:"msqueue.deq.head_load" t.head Mode.Acq in
      let empty_commit =
        Commit.compose
          (fun (r : Commit.op_result) ->
            if Value.equal r.value Value.Null then
              [ Commit.spec ~obj [ Commit.ev d Event.EmpDeq ] ]
            else [])
          extra
      in
      let* nx =
        Prog.load ~site:"msqueue.deq.next_load" (fnext h) Mode.Acq
          ~commit:empty_commit
      in
      match nx with
      | Value.Null -> Prog.return (Some Value.Null)
      | _ ->
          let* v = Prog.load ~site:"msqueue.deq.val_load" (fval nx) Mode.Na in
          let* ev = Prog.load ~site:"msqueue.deq.eid_load" (feid nx) Mode.Na in
          let e = Value.to_int_exn ev in
          let commit =
            Commit.compose
              (Commit.on_success ~obj
                 ~so:(fun _ -> [ (e, d) ])
                 (fun _ -> (d, Event.Deq v)))
              extra
          in
          let* _, ok =
            Prog.cas ~site:"msqueue.deq.head_cas" t.head ~expected:h
              ~desired:nx Mode.AcqRel ~commit
          in
          if ok then Prog.return (Some v) else Prog.return None)

let factory ~q_name ~publish : Iface.queue_factory =
  {
    Iface.q_name;
    make_queue =
      (fun m ~name ->
        let t = build ~publish m ~name in
        {
          Iface.q_graph = t.graph;
          enq = (fun v -> enq t v);
          deq = (fun () -> deq t);
        });
  }

let instantiate = factory ~q_name:"ms-queue" ~publish:Mode.AcqRel
let relaxed_publication = factory ~q_name:"ms-queue-weak" ~publish:Mode.Rlx
