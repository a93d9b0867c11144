open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct
open Prog.Syntax

(* The elimination-stack composition — Section 4's flagship verification,
   as an executable simulation check.

   The ES is simultaneously a *client* (of the base Treiber stack and the
   exchanger) and a *library* (a stack).  We run a contended workload on
   the ES and check, on every explored execution:

   - the ES's own graph satisfies StackConsistent (the library obligation);
   - the base stack's graph satisfies StackConsistent and the exchanger's
     graph satisfies ExchangerConsistent (the parts keep their specs —
     the composition adds no atomics and cannot break them);
   - the simulation relation: every base Push/Pop/EmpPop has an ES
     counterpart in the same commit step; every eliminated pair appears as
     an ES push+pop committed atomically together; nothing else is in the
     ES graph.

   Statistics count how many pops were served by elimination vs the base
   stack — the observable benefit of the elimination layer. *)

type stats = {
  executions : int Atomic.t;
  eliminated : int Atomic.t;  (** ES pairs created by exchanges *)
  via_base : int Atomic.t;  (** ES events created at base-stack commits *)
}

let fresh_stats () =
  {
    executions = Atomic.make 0;
    eliminated = Atomic.make 0;
    via_base = Atomic.make 0;
  }

(* Simulation check: partition ES events by commit step against the base
   and exchanger graphs. *)
let simulation_violations (t : Elimination.t) =
  let es_g = Elimination.graph t in
  let base_g = Treiber.graph t.Elimination.base in
  let ex_g = Exchanger.graph t.Elimination.ex in
  let step_of (e : Event.data) = fst e.Event.cix in
  let base_steps =
    List.map step_of (Graph.events base_g) |> List.sort_uniq compare
  in
  let ex_match_steps =
    Graph.so ex_g |> List.map (fun (a, _) -> step_of (Graph.find ex_g a))
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun (e : Event.data) ->
      let s = step_of e in
      if List.mem s base_steps || List.mem s ex_match_steps then None
      else
        Some
          (Check.v "es-simulation"
             "ES event %a has no base-stack or exchange commit in its step"
             Event.pp e))
    (Graph.events es_g)
  @
  (* Every base event must be simulated: same number of ES events from
     base steps as base events. *)
  let es_from_base =
    List.filter
      (fun (e : Event.data) -> List.mem (step_of e) base_steps)
      (Graph.events es_g)
  in
  if List.length es_from_base <> Graph.size base_g then
    [
      Check.v "es-simulation" "%d base events but %d simulated ES events"
        (Graph.size base_g) (List.length es_from_base);
    ]
  else []

let make ?(pushers = 1) ?(poppers = 2) ?(ops = 1)
    (st : stats) =
  Harness.scenario
    ~name:(Printf.sprintf "es-compose[%d push, %d pop]" pushers poppers)
    (fun m ->
      let t = Elimination.create m ~name:"es" in
      let push_thread tid =
        Prog.returning_unit
          (Prog.for_ 0 (ops - 1) (fun i ->
               Elimination.push t (Harness.val_of ~tid ~i)))
      in
      let pop_thread _ =
        Prog.returning_unit
          (Prog.for_ 0 (ops - 1) (fun _ ->
               let* _ = Elimination.pop t in
               Prog.return ()))
      in
      let threads =
        List.init pushers push_thread @ List.init poppers pop_thread
      in
      let judge vs =
        Atomic.incr st.executions;
        let es_g = Elimination.graph t in
        let ex_g = Exchanger.graph t.Elimination.ex in
        let base_g = Treiber.graph t.Elimination.base in
        ignore
          (Atomic.fetch_and_add st.eliminated (List.length (Graph.so ex_g) / 2));
        ignore (Atomic.fetch_and_add st.via_base (Graph.size base_g));
        Libspec.(
          graph_judge Hb stack es_g
          &&& graph_judge Hb stack base_g
          &&& fun _ -> first_violation (Exchanger_spec.consistent ex_g))
          vs
        |> function
        | Explore.Pass -> Libspec.first_violation (simulation_violations t)
        | v -> v
      in
      (threads, judge))


