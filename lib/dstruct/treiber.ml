open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* Treiber stack [Treiber'86], relaxed: pushes use release CASes and
   successful pops use acquire CASes — exactly the access modes of the
   paper's Section 3.3, where this implementation is verified against the
   LAThist specs.  There are lhb edges only between matching push-pop
   pairs; the linearisation [to] is derivable from lhb plus the
   modification order of [head] — operationally, our commit order *is*
   that modification order, which experiment E5 exploits.

   Commit points:
   - push: the successful release CAS on [head];
   - successful pop: the successful acquire CAS on [head];
   - empty pop: the acquire load of [head] that returned null (which may be
     a *stale* null — the resulting EmpPop may need reordering in [to],
     which is why LAThist only requires existence of a valid reordering). *)

(* Node block: [0] value, [1] event id, [2] next. *)
type t = { head : Loc.t; graph : Graph.t; fuel : int }

let default_fuel = 32

let create ?(fuel = default_fuel) m ~name =
  let graph = Machine.new_graph m ~name in
  let head = Machine.alloc m ~name ~init:Value.Null 1 in
  { head; graph; fuel }

let graph t = t.graph

let make_node v e =
  let* n = Prog.alloc ~name:"node" 3 in
  let* () = Prog.store ~site:"treiber.push.init_val" (Loc.shift n 0) v Mode.Na in
  let* () =
    Prog.store ~site:"treiber.push.init_eid" (Loc.shift n 1) (Value.Int e)
      Mode.Na
  in
  Prog.return n

(* One push attempt; [Some ()] on success. *)
let push_attempt ?(extra = fun _ -> []) t v e n =
  let* h = Prog.load ~site:"treiber.push.head_load" t.head Mode.Rlx in
  let* () = Prog.store ~site:"treiber.push.init_next" (Loc.shift n 2) h Mode.Na in
  let commit =
    Commit.compose
      (Commit.on_success ~obj:(Graph.obj t.graph) (fun _ -> (e, Event.Push v)))
      extra
  in
  let* _, ok =
    Prog.cas ~site:"treiber.push.head_cas" t.head ~expected:h
      ~desired:(Value.Ptr n) Mode.Rel ~commit
  in
  Prog.return (if ok then Some () else None)

(* One pop attempt; [Some v] done (with [v = Null] for empty), [None] lost
   a race. *)
let pop_attempt ?(extra = fun _ -> []) t d =
  let obj = Graph.obj t.graph in
  let empty_commit =
    Commit.compose
      (fun (r : Commit.op_result) ->
        if Value.equal r.value Value.Null then
          [ Commit.spec ~obj [ Commit.ev d Event.EmpPop ] ]
        else [])
      extra
  in
  let* h = Prog.load ~site:"treiber.pop.head_load" t.head Mode.Acq ~commit:empty_commit in
  match h with
  | Value.Null -> Prog.return (Some Value.Null)
  | _ ->
      let* v =
        Prog.load ~site:"treiber.pop.val_load"
          (Loc.shift (Value.to_loc_exn h) 0)
          Mode.Na
      in
      let* ev =
        Prog.load ~site:"treiber.pop.eid_load"
          (Loc.shift (Value.to_loc_exn h) 1)
          Mode.Na
      in
      let e = Value.to_int_exn ev in
      let* nx =
        Prog.load ~site:"treiber.pop.next_load"
          (Loc.shift (Value.to_loc_exn h) 2)
          Mode.Na
      in
      let commit =
        Commit.compose
          (Commit.on_success ~obj
             ~so:(fun _ -> [ (e, d) ])
             (fun _ -> (d, Event.Pop v)))
          extra
      in
      let* _, ok =
        Prog.cas ~site:"treiber.pop.head_cas" t.head ~expected:h ~desired:nx
          Mode.Acq ~commit
      in
      Prog.return (if ok then Some v else None)

let push ?extra t v =
  let* e = Prog.reserve in
  let* n = make_node v e in
  Prog.with_fuel ~fuel:t.fuel ~what:"treiber-push" (fun () ->
      push_attempt ?extra t v e n)

let pop ?extra t =
  let* d = Prog.reserve in
  Prog.with_fuel ~fuel:t.fuel ~what:"treiber-pop" (fun () -> pop_attempt ?extra t d)

(* Single-attempt operations for the elimination stack (the paper's
   [try_push'] and [try_pop'], Section 4.1). *)
let try_push ?extra t v =
  let* e = Prog.reserve in
  let* n = make_node v e in
  let* r = push_attempt ?extra t v e n in
  Prog.return (match r with Some () -> Value.Int 1 | None -> Value.Fail)

let try_pop ?extra t =
  let* d = Prog.reserve in
  let* r = pop_attempt ?extra t d in
  Prog.return (match r with Some v -> v | None -> Value.Fail)

let instantiate : Iface.stack_factory =
  {
    Iface.s_name = "treiber";
    make_stack =
      (fun m ~name ->
        let t = create m ~name in
        {
          Iface.s_graph = t.graph;
          push = (fun v -> push t v);
          pop = (fun () -> pop t);
        });
  }
