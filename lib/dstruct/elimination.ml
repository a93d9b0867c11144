open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* Elimination stack [Hendler, Shavit & Yerushalmi, SPAA'04], composed from
   a base Treiber stack and an exchanger exactly as in the paper's
   Section 4.1:

     try_push(s, v) ::= if try_push'(s.base, v) then true
                        else exchange(s.ex, v) == SENTINEL
     try_pop(s)     ::= let v = try_pop'(s.base) in
                        if v != FAIL_RACE then v
                        else let v' = exchange(s.ex, SENTINEL) in
                             if v' ∉ {SENTINEL, ⊥} then v' else FAIL_RACE

   The implementation adds *no* atomic instructions of its own; its events
   are grafted onto the base structures' commit points through the [extra]
   commit hooks — the executable form of the paper's simulation argument:

   - a base-stack Push/Pop/EmpPop commit simultaneously commits the
     corresponding ES event (same atomic step);
   - a successful exchange between a value [v] and SENTINEL commits an ES
     [Push v] and an ES [Pop v] *in the same atomic step* as the
     exchanger's own pair — the eliminated element is pushed and popped at
     once, so no concurrent ES operation can observe the intermediate
     state, which is what preserves LIFO;
   - value-value and SENTINEL-SENTINEL matches, and failed exchanges, add
     no ES events (the callers retry).

   Ghost state: a table mapping base-stack push event ids to ES push event
   ids, so that a base pop's so edge can be translated to the ES graph —
   the simulation relation of the proof, as data. *)

type t = {
  base : Treiber.t;
  ex : Exchanger.t;
  graph : Graph.t;
  reg : Registry.t;
  push_map : (int, int) Hashtbl.t;  (** base push eid -> ES push eid *)
  fuel : int;
}

let default_fuel = 8

let create ?(fuel = default_fuel) m ~name =
  let graph = Machine.new_graph m ~name in
  let base = Treiber.create m ~name:(name ^ ".base") in
  let ex = Exchanger.create m ~name:(name ^ ".ex") in
  {
    base;
    ex;
    graph;
    reg = Machine.registry m;
    push_map = Hashtbl.create 16;
    fuel;
  }

let graph t = t.graph

(* -- commit hooks ----------------------------------------------------------- *)

(* Translate a base-stack commit into an ES commit (same step). *)
let on_base t : Commit.spec list -> Commit.spec list =
 fun base_specs ->
  List.concat_map
    (fun (spec : Commit.spec) ->
      List.concat_map
        (fun (es : Commit.ev_spec) ->
          match es.Commit.typ with
          | Event.Push v ->
              let es_e = Registry.reserve t.reg in
              Hashtbl.replace t.push_map es.Commit.eid es_e;
              [ Commit.spec ~obj:(Graph.obj t.graph) [ Commit.ev es_e (Event.Push v) ] ]
          | Event.Pop v ->
              let es_d = Registry.reserve t.reg in
              let so =
                List.filter_map
                  (fun (f, _) ->
                    match Hashtbl.find_opt t.push_map f with
                    | Some es_f -> Some (es_f, es_d)
                    | None -> None)
                  spec.Commit.so
              in
              [ Commit.spec ~obj:(Graph.obj t.graph) [ Commit.ev es_d (Event.Pop v) ] ~so ]
          | Event.EmpPop ->
              let es_d = Registry.reserve t.reg in
              [ Commit.spec ~obj:(Graph.obj t.graph) [ Commit.ev es_d Event.EmpPop ] ]
          | _ -> [])
        spec.Commit.events)
    base_specs

(* Translate a successful v/SENTINEL exchange into an eliminated ES
   push-pop pair (committed in the same step, push first). *)
let on_exchange t : Commit.spec list -> Commit.spec list =
 fun base_specs ->
  List.concat_map
    (fun (spec : Commit.spec) ->
      match spec.Commit.events with
      | [ helpee; helper ] -> (
          match (helpee.Commit.typ, helper.Commit.typ) with
          | Event.Exchange (v2, s2), Event.Exchange (v1, s1)
            when (Value.equal s2 Value.Sentinel && not (Value.equal v2 Value.Sentinel))
                 || (Value.equal s1 Value.Sentinel && not (Value.equal v1 Value.Sentinel))
            ->
              (* Exactly one side gave SENTINEL (the popper); the other
                 gave the value (the pusher). *)
              let pushed, pusher_tid, popper_tid =
                if Value.equal s2 Value.Sentinel then
                  (* helpee gave v2 (value), helper gave SENTINEL *)
                  (v2, helpee.Commit.tid, helper.Commit.tid)
                else (v1, helper.Commit.tid, helpee.Commit.tid)
              in
              if Value.equal pushed Value.Sentinel then []
              else begin
                let es_e = Registry.reserve t.reg in
                let es_d = Registry.reserve t.reg in
                [
                  Commit.spec ~obj:(Graph.obj t.graph)
                    [
                      Commit.ev es_e (Event.Push pushed) ?tid:pusher_tid;
                      Commit.ev es_d (Event.Pop pushed) ?tid:popper_tid;
                    ]
                    ~so:[ (es_e, es_d) ];
                ]
              end
          | _ -> [])
      | _ -> [])
    base_specs

(* -- operations (the paper's code, verbatim) --------------------------------- *)

let try_push t v =
  let* r = Treiber.try_push ~extra:(on_base t) t.base v in
  match r with
  | Value.Int 1 -> Prog.return (Value.Int 1)
  | _ ->
      let* v' = Exchanger.exchange ~extra:(on_exchange t) t.ex v in
      Prog.return
        (if Value.equal v' Value.Sentinel then Value.Int 1 else Value.Fail)

let try_pop t =
  let* v = Treiber.try_pop ~extra:(on_base t) t.base in
  if not (Value.equal v Value.Fail) then Prog.return v
  else
    let* v' = Exchanger.exchange ~extra:(on_exchange t) t.ex Value.Sentinel in
    if not (Value.equal v' Value.Sentinel || Value.equal v' Value.Null) then
      Prog.return v'
    else Prog.return Value.Fail

let push t v =
  Prog.with_fuel ~fuel:t.fuel ~what:"es-push" (fun () ->
      let* r = try_push t v in
      Prog.return (if Value.equal r (Value.Int 1) then Some () else None))

let pop t =
  Prog.with_fuel ~fuel:t.fuel ~what:"es-pop" (fun () ->
      let* v = try_pop t in
      if Value.equal v Value.Fail then Prog.return None else Prog.return (Some v))

let instantiate : Iface.stack_factory =
  {
    Iface.s_name = "elimination";
    make_stack =
      (fun m ~name ->
        let t = create m ~name in
        {
          Iface.s_graph = t.graph;
          push = (fun v -> push t v);
          pop = (fun () -> pop t);
        });
  }
