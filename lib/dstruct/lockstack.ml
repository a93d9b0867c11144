open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* Coarse-grained lock-based stack — the stack-side SC baseline; see
   Lockqueue for the rationale. *)

(* Block: [0] lock, [1] top index, [2..2+cap) slots (pointers to
   [value; eid] cells). *)
type t = { base : Loc.t; capacity : int; graph : Graph.t; fuel : int }

let default_fuel = 16

let create ?(capacity = 8) ?(fuel = default_fuel) m ~name =
  let graph = Machine.new_graph m ~name in
  let base = Machine.alloc m ~name (capacity + 2) in
  ignore
    (Machine.solo m
       (Prog.returning_unit
          (let* () = Prog.store base (Value.Int 0) Mode.Na in
           Prog.store (Loc.shift base 1) (Value.Int 0) Mode.Na)));
  { base; capacity; graph; fuel }

let graph t = t.graph
let lock_cell t = t.base
let top_cell t = Loc.shift t.base 1
let slot t i = Loc.shift t.base (2 + i)

let lock t =
  Prog.with_fuel ~fuel:t.fuel ~what:"lockstack-lock" (fun () ->
      let* _ = Prog.await (lock_cell t) Mode.Rlx (Value.equal (Value.Int 0)) in
      let* _, ok =
        Prog.cas (lock_cell t) ~expected:(Value.Int 0) ~desired:(Value.Int 1)
          Mode.AcqRel
      in
      Prog.return (if ok then Some () else None))

let unlock t = Prog.store (lock_cell t) (Value.Int 0) Mode.Rel

let push ?(extra = fun _ -> []) t v =
  let* e = Prog.reserve in
  let* cell = Prog.alloc ~name:"cell" 2 in
  let* () = Prog.store cell v Mode.Na in
  let* () = Prog.store (Loc.shift cell 1) (Value.Int e) Mode.Na in
  let* () = lock t in
  let* tp = Prog.load (top_cell t) Mode.Na in
  let tp = Value.to_int_exn tp in
  if tp >= t.capacity then raise (Prog.Out_of_fuel "lockstack-capacity")
  else
    let* () = Prog.store (slot t tp) (Value.Ptr cell) Mode.Na in
    let commit =
      Commit.compose
        (Commit.always ~obj:(Graph.obj t.graph) (fun _ -> (e, Event.Push v)))
        extra
    in
    let* () = Prog.store (top_cell t) (Value.Int (tp + 1)) Mode.Na ~commit in
    unlock t

let pop ?(extra = fun _ -> []) t =
  let* d = Prog.reserve in
  let obj = Graph.obj t.graph in
  let* () = lock t in
  let* tp = Prog.load (top_cell t) Mode.Na in
  let tp = Value.to_int_exn tp in
  if tp = 0 then
    let empty_commit =
      Commit.compose
        (fun _ -> [ Commit.spec ~obj [ Commit.ev d Event.EmpPop ] ])
        extra
    in
    let* _ = Prog.load (top_cell t) Mode.Na ~commit:empty_commit in
    let* () = unlock t in
    Prog.return Value.Null
  else
    let* cellp = Prog.load (slot t (tp - 1)) Mode.Na in
    let* v = Prog.load (Value.to_loc_exn cellp) Mode.Na in
    let* ev = Prog.load (Loc.shift (Value.to_loc_exn cellp) 1) Mode.Na in
    let e = Value.to_int_exn ev in
    let commit =
      Commit.compose
        (Commit.always ~obj ~so:(fun _ -> [ (e, d) ]) (fun _ -> (d, Event.Pop v)))
        extra
    in
    let* () = Prog.store (top_cell t) (Value.Int (tp - 1)) Mode.Na ~commit in
    let* () = unlock t in
    Prog.return v

let instantiate : Iface.stack_factory =
  {
    Iface.s_name = "lock-stack";
    make_stack =
      (fun m ~name ->
        let t = create m ~name in
        {
          Iface.s_graph = t.graph;
          push = (fun v -> push t v);
          pop = (fun () -> pop t);
        });
  }
