open Compass_rmc
open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct
open Prog.Syntax

(* Spec-as-implementation: a reference object whose operations are the
   spec's abstract transitions, executed atomically.

   Layout: one cell [lin], the linearisation point.  Every operation is a
   fetch-and-add on [lin] (acq-rel, so each committer acquires all prior
   committers' views and logical views).  The commit function attached to
   that single instruction replays the object's event graph in commit
   order to the current abstract state, asks the spec for the transition,
   and commits the resulting event with its so edges — all in the same
   atomic machine step.  The continuation then reads the committed event
   back out of the graph to produce the operation's return value; the
   machine applies continuations within the step, so the readback is
   atomic with the commit (and replays identically under the incremental
   checkpoint/restore engine, which restores graphs in place). *)

let kind_of (spec : Libspec.t) =
  match spec.Libspec.kind with
  | Some k -> k
  | None ->
      invalid_arg
        (Printf.sprintf "Specobj: spec %s has no sequential kind"
           spec.Libspec.name)

type t = { graph : Graph.t; lin : Loc.t; kind : Libspec.kind; site : string }

(* The object's current abstract state: its graph's committed events
   folded through the abstract machine in commit order.  Every commit on
   this graph is an abstract transition by construction, so the fold
   inverts the construction exactly (empty removals only ever commit on
   the empty abstract state). *)
let replay kind g : Libspec.astate =
  let step st (e : Event.data) =
    match Libspec.op_of_typ e.Event.typ with
    | None -> st
    | Some req ->
        let st', _, _ = Libspec.transition kind st ~id:e.id req in
        st'
  in
  List.fold_left step [] (Graph.events_by_cix g)

let create spec m ~name =
  let kind = kind_of spec in
  let graph = Machine.new_graph m ~name in
  let lin = Machine.alloc m ~init:(Value.Int 0) ~name:(name ^ ".lin") 1 in
  { graph; lin; kind; site = "spec." ^ spec.Libspec.name }

(* One atomic abstract transition; returns the committed event's type. *)
let atomic t ~opname req =
  let* id = Prog.reserve in
  let obj = Graph.obj t.graph in
  let commit (_ : Commit.op_result) =
    let st = replay t.kind t.graph in
    let _, typ, so = Libspec.transition t.kind st ~id req in
    [ Commit.spec ~obj ~so [ Commit.ev id typ ] ]
  in
  let* _ =
    Prog.faa ~site:(t.site ^ "." ^ opname) ~commit t.lin 1 Mode.AcqRel
  in
  match Graph.find_opt t.graph id with
  | Some e -> Prog.return e.Event.typ
  | None -> Prog.return Event.EmpDeq (* unreachable: the commit is unconditional *)

let insert t ~opname v =
  let* _ = atomic t ~opname (Libspec.Insert v) in
  Prog.return ()

let remove t ~opname =
  let* typ = atomic t ~opname Libspec.Remove in
  match typ with
  | Event.Deq v | Event.Pop v -> Prog.return v
  | _ -> Prog.return Value.Null

let name_of spec = "spec:" ^ spec.Libspec.name

let queue ?(spec = Libspec.queue) () : Iface.queue_factory =
  {
    Iface.q_name = name_of spec;
    make_queue =
      (fun m ~name ->
        let t = create spec m ~name in
        {
          Iface.q_graph = t.graph;
          enq = (fun v -> insert t ~opname:"enq" v);
          deq = (fun () -> remove t ~opname:"deq");
        });
  }

let stack ?(spec = Libspec.stack) () : Iface.stack_factory =
  {
    Iface.s_name = name_of spec;
    make_stack =
      (fun m ~name ->
        let t = create spec m ~name in
        {
          Iface.s_graph = t.graph;
          push = (fun v -> insert t ~opname:"push" v);
          pop = (fun () -> remove t ~opname:"pop");
        });
  }
