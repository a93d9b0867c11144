open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* Herlihy-Wing queue [Herlihy & Wing, TOPLAS'90], the *weak* relaxed
   variant of Yacovet [Raad et al., POPL'19] that the paper verifies against
   the LAThb specs (Section 3.2): enqueues use release operations, dequeues
   use acquire ones, and there is deliberately no synchronisation among
   enqueues or among dequeues.

   enq: i := FAA_rlx(back); items[i] :=rel cell
   deq: scan items[0 .. back): x := XCHG_acq(items[i], TAKEN); first
        non-null x wins; a full fruitless scan is an *empty* dequeue.

   This implementation cannot construct an abstract state at its commit
   points (the order of FAA reservations differs from the order of slot
   publications; the SC proof needs prophecy variables) — experiment E3
   shows the LATabs checker failing on it while LAThb holds, reproducing
   the paper's motivation for abandoning abstract states.

   Ghost state: enqueue records (value, event id) for its cell in an
   OCaml-level table, so the dequeue's commit function — which runs inside
   the atomic XCHG step — can name the matched enqueue.  This mirrors the
   ghost state of the Coq proof; the returned value itself is still read
   from simulated memory. *)

type t = {
  back : Loc.t;
  items : Loc.t;  (** base of [capacity] slots *)
  capacity : int;
  graph : Graph.t;
  ghost : (int, Value.t * int) Hashtbl.t;  (** cell base -> (value, enq id) *)
}

let create ?(capacity = 8) m ~name =
  let graph = Machine.new_graph m ~name in
  let q = Machine.alloc m ~name (capacity + 1) in
  let () =
    ignore
      (Machine.solo m
         (Prog.returning_unit
            (let* () = Prog.store q (Value.Int 0) Mode.Na in
             Prog.for_ 1 capacity (fun i ->
                 Prog.store (Loc.shift q i) Value.Null Mode.Na))))
  in
  {
    back = q;
    items = Loc.shift q 1;
    capacity;
    graph;
    ghost = Hashtbl.create 16;
  }

let graph t = t.graph
let slot t i = Loc.shift t.items i

let enq ?(extra = fun _ -> []) t v =
  let* e = Prog.reserve in
  let* cell = Prog.alloc ~name:"cell" 2 in
  let* () = Prog.store ~site:"hwqueue.enq.init_val" (Loc.shift cell 0) v Mode.Na in
  let* () =
    Prog.store ~site:"hwqueue.enq.init_eid" (Loc.shift cell 1) (Value.Int e)
      Mode.Na
  in
  Hashtbl.replace t.ghost (Loc.base cell) (v, e);
  let* i = Prog.faa ~site:"hwqueue.enq.back_faa" t.back 1 Mode.Rlx in
  if i >= t.capacity then
    (* Out of slots: not a behaviour of the unbounded algorithm; discard. *)
    let* () = Prog.yield in
    raise (Prog.Out_of_fuel "hw-capacity")
  else
    let commit =
      Commit.compose
        (Commit.always ~obj:(Graph.obj t.graph) (fun _ -> (e, Event.Enq v)))
        extra
    in
    Prog.store ~site:"hwqueue.enq.slot_publish" (slot t i) (Value.Ptr cell)
      Mode.Rel ~commit

let deq ?(extra = fun _ -> []) t =
  let* d = Prog.reserve in
  let obj = Graph.obj t.graph in
  let* b = Prog.load ~site:"hwqueue.deq.back_load" t.back Mode.Rlx in
  let b = min (Value.to_int_exn b) t.capacity in
  let take_commit =
    Commit.compose
      (fun (r : Commit.op_result) ->
        match r.value with
        | Value.Ptr cell ->
            let v, e = Hashtbl.find t.ghost (Loc.base cell) in
            [
              Commit.spec ~obj
                [ Commit.ev d (Event.Deq v) ]
                ~so:[ (e, d) ];
            ]
        | _ -> [])
      extra
  in
  let rec scan i =
    if i >= b then
      (* Fruitless scan: commit the empty dequeue on a (relaxed) re-read of
         back — a read-only commit point, as the paper allows. *)
      let empty_commit =
        Commit.compose
          (fun _ -> [ Commit.spec ~obj [ Commit.ev d Event.EmpDeq ] ])
          extra
      in
      let* _ =
        Prog.load ~site:"hwqueue.deq.back_reread" t.back Mode.Rlx
          ~commit:empty_commit
      in
      Prog.return Value.Null
    else
      let* x =
        Prog.xchg ~site:"hwqueue.deq.slot_take" (slot t i) Value.Taken
          Mode.Acq ~commit:take_commit
      in
      match x with
      | Value.Ptr cell ->
          Prog.load ~site:"hwqueue.deq.val_load" (Loc.shift cell 0) Mode.Na
      | _ -> scan (i + 1)
  in
  scan 0

let instantiate : Iface.queue_factory =
  {
    Iface.q_name = "hw-queue";
    make_queue =
      (fun m ~name ->
        let t = create m ~name in
        {
          Iface.q_graph = t.graph;
          enq = (fun v -> enq t v);
          deq = (fun () -> deq t);
        });
  }
