open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* A coarse-grained lock-based queue — the SC baseline.

   Every operation holds a test-and-set spinlock for its whole duration;
   the data (indices and slots) is accessed *non-atomically*, which is
   race-free exactly because the lock's acq-rel CAS and release store
   transfer the previous holder's views (and logical views).  This is the
   limit case of Section 3.1's observation: with enough synchronisation,
   the full SC-strength spec is recovered — this implementation satisfies
   even SC-abs (empty dequeues only on truly empty abstract states), which
   no relaxed implementation does.  Experiment E2 uses it to complete the
   top of the spec-style matrix. *)

(* Block: [0] lock, [1] head index, [2] tail index, [3..3+cap) slots.
   Slots hold pointers to 2-cells [value; eid]. *)
type t = { base : Loc.t; capacity : int; graph : Graph.t; fuel : int }

let default_fuel = 16

let create ?(capacity = 8) ?(fuel = default_fuel) m ~name =
  let graph = Machine.new_graph m ~name in
  let base = Machine.alloc m ~name (capacity + 3) in
  ignore
    (Machine.solo m
       (Prog.returning_unit
          (let* () = Prog.store base (Value.Int 0) Mode.Na in
           let* () = Prog.store (Loc.shift base 1) (Value.Int 0) Mode.Na in
           Prog.store (Loc.shift base 2) (Value.Int 0) Mode.Na)));
  { base; capacity; graph; fuel }

let graph t = t.graph
let lock_cell t = t.base
let head_cell t = Loc.shift t.base 1
let tail_cell t = Loc.shift t.base 2
let slot t i = Loc.shift t.base (3 + i)

let lock t =
  Prog.with_fuel ~fuel:t.fuel ~what:"lockqueue-lock" (fun () ->
      let* _ =
        Prog.await ~site:"lockqueue.lock.await" (lock_cell t) Mode.Rlx
          (Value.equal (Value.Int 0))
      in
      let* _, ok =
        Prog.cas ~site:"lockqueue.lock.cas" (lock_cell t)
          ~expected:(Value.Int 0) ~desired:(Value.Int 1) Mode.AcqRel
      in
      Prog.return (if ok then Some () else None))

let unlock t =
  Prog.store ~site:"lockqueue.unlock.store" (lock_cell t) (Value.Int 0)
    Mode.Rel

let enq ?(extra = fun _ -> []) t v =
  let* e = Prog.reserve in
  let* cell = Prog.alloc ~name:"cell" 2 in
  let* () = Prog.store cell v Mode.Na in
  let* () = Prog.store (Loc.shift cell 1) (Value.Int e) Mode.Na in
  let* () = lock t in
  let* tl = Prog.load (tail_cell t) Mode.Na in
  let tl = Value.to_int_exn tl in
  if tl >= t.capacity then raise (Prog.Out_of_fuel "lockqueue-capacity")
  else
    let* () = Prog.store (slot t tl) (Value.Ptr cell) Mode.Na in
    let commit =
      Commit.compose
        (Commit.always ~obj:(Graph.obj t.graph) (fun _ -> (e, Event.Enq v)))
        extra
    in
    (* Commit point: the tail bump, still under the lock. *)
    let* () = Prog.store (tail_cell t) (Value.Int (tl + 1)) Mode.Na ~commit in
    unlock t

let deq ?(extra = fun _ -> []) t =
  let* d = Prog.reserve in
  let obj = Graph.obj t.graph in
  let* () = lock t in
  let* h = Prog.load (head_cell t) Mode.Na in
  let h = Value.to_int_exn h in
  let* tl = Prog.load (tail_cell t) Mode.Na in
  let tl = Value.to_int_exn tl in
  if h = tl then
    (* Empty: commit on a (non-atomic) re-read of head — truly empty, so
       even SC-abs is satisfied. *)
    let empty_commit =
      Commit.compose
        (fun _ -> [ Commit.spec ~obj [ Commit.ev d Event.EmpDeq ] ])
        extra
    in
    let* _ = Prog.load (head_cell t) Mode.Na ~commit:empty_commit in
    let* () = unlock t in
    Prog.return Value.Null
  else
    let* cellp = Prog.load (slot t h) Mode.Na in
    let* v = Prog.load (Value.to_loc_exn cellp) Mode.Na in
    let* ev = Prog.load (Loc.shift (Value.to_loc_exn cellp) 1) Mode.Na in
    let e = Value.to_int_exn ev in
    let commit =
      Commit.compose
        (Commit.always ~obj ~so:(fun _ -> [ (e, d) ]) (fun _ -> (d, Event.Deq v)))
        extra
    in
    let* () = Prog.store (head_cell t) (Value.Int (h + 1)) Mode.Na ~commit in
    let* () = unlock t in
    Prog.return v

let instantiate : Iface.queue_factory =
  {
    Iface.q_name = "lock-queue";
    make_queue =
      (fun m ~name ->
        let t = create m ~name in
        {
          Iface.q_graph = t.graph;
          enq = (fun v -> enq t v);
          deq = (fun () -> deq t);
        });
  }
