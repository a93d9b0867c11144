open Compass_rmc
open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct
open Prog.Syntax

(* Section 3.1's flexibility claim, executed:

   "if a client decides to use the queue in an SC fashion by adding
   sufficient external synchronisation, the client can know that lhb is
   total ... and regain the stronger FIFO condition with
   (d', d) ∈ G.lhb."

   Every queue operation runs under a global spinlock.  The judge then
   checks properties that are FALSE for the bare relaxed queue:

   - lhb restricted to the queue's events is total;
   - the *strong* FIFO condition: if e' -lhb-> e and d dequeues e, then
     e' was dequeued by a d' with (d', d) ∈ lhb (not merely committed
     earlier);
   - empty dequeues satisfy even the SC condition (truly empty abstract
     state), because the lock serialises everything.

   Works with any implementation — MS or the weak HW queue alike: the
   client's external synchronisation upgrades the guarantee, exactly the
   compositional story the paper tells. *)

type stats = { executions : int Atomic.t }

let fresh_stats () = { executions = Atomic.make 0 }

let lhb_total g =
  let ids = List.map (fun (e : Event.data) -> e.Event.id) (Graph.events g) in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          a = b || Graph.lhb g ~before:a ~after:b || Graph.lhb g ~before:b ~after:a)
        ids)
    ids

let strong_fifo g =
  let so = Graph.so g in
  List.for_all
    (fun (e_id, d_id) ->
      let d = Graph.find g d_id in
      (not (Event.is_deq d))
      || List.for_all
           (fun (e' : Event.data) ->
             (not
                (e'.Event.id <> e_id
                && Graph.lhb g ~before:e'.Event.id ~after:e_id))
             || List.exists
                  (fun (f, t) ->
                    f = e'.Event.id && Graph.lhb g ~before:t ~after:d_id)
                  so)
           (List.filter Event.is_enq (Graph.events g)))
    so

let make (factory : Iface.queue_factory) (st : stats) =
  Harness.scenario
    ~name:(Printf.sprintf "strong-fifo[%s under lock]" factory.q_name)
    (fun m ->
      let q = factory.make_queue m ~name:"q" in
      let lock = Spinlock.create m ~name:"lock" in
      let locked p = Spinlock.with_lock lock p in
      let enq_thread tid =
        Prog.returning_unit
          (Prog.for_ 0 0 (fun i -> locked (q.Iface.enq (Harness.val_of ~tid ~i))))
      in
      let deq_thread _ =
        let* v = locked (q.Iface.deq ()) in
        let* w = locked (q.Iface.deq ()) in
        Prog.return
          (match (v, w) with
          | Value.Int a, Value.Int b -> Value.Int ((a * 1000) + b)
          | _ -> Value.Null)
      in
      let judge _vs =
        Atomic.incr st.executions;
        let g = q.Iface.q_graph in
        if not (lhb_total g) then
          Explore.Violation "lhb not total despite the lock"
        else if not (strong_fifo g) then
          Explore.Violation "strong FIFO not regained"
        else
          Libspec.first_violation (Libspec.check Libspec.Sc_abs Libspec.queue g)
      in
      ([ enq_thread 0; enq_thread 1; deq_thread 0 ], judge))

(* Negative control: the same judge on the bare (unlocked) queue.  The
   scenario PASSES when the strong conditions fail somewhere — showing
   they are genuinely client-supplied, not implementation-given.  The
   counter records how many executions broke totality. *)
let make_control (factory : Iface.queue_factory) (broke : int Atomic.t) =
  Harness.scenario
    ~name:(Printf.sprintf "strong-fifo-control[%s bare]" factory.q_name)
    (fun m ->
      let q = factory.make_queue m ~name:"q" in
      let enq_thread tid =
        Prog.returning_unit
          (Prog.for_ 0 0 (fun i -> q.Iface.enq (Harness.val_of ~tid ~i)))
      in
      let deq_thread _ =
        let* _ = q.Iface.deq () in
        let* _ = q.Iface.deq () in
        Prog.return Value.Unit
      in
      let judge _vs =
        let g = q.Iface.q_graph in
        if not (lhb_total g) then Atomic.incr broke;
        (* Consistency of the plain (weak) spec must of course hold. *)
        Libspec.graph_judge Libspec.Hb Libspec.queue g _vs
      in
      ([ enq_thread 0; enq_thread 1; deq_thread 0 ], judge))
