open Compass_rmc
open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct
open Prog.Syntax

(* A work-stealing scheduler client for the Chase-Lev deque (experiment
   E8 — the paper's Section 6 future work).

   The owner pushes [tasks] distinct tasks interleaved with its own pops;
   [thieves] thieves steal.  Checked on every execution:

   - no task is lost or duplicated: the multiset of successful pops and
     steals is a sub(multi)set of the pushed tasks with no repeats, and
     tasks neither taken nor left in the deque do not exist (conservation);
   - WsDequeConsistent (including the steal-order and owner-LIFO
     conditions) on the event graph;
   - LAThist: a linearisation of the deque history exists.

   [weak_fences] runs the broken ablation: with acq-rel instead of SC
   fences, the owner-vs-thief race on the last element double-takes — the
   model checker exhibits `ws-uniq` violations, confirming that the
   checker (and the fence semantics) have teeth. *)

type stats = {
  executions : int Atomic.t;
  popped : int Atomic.t;
  stolen : int Atomic.t;
  empty_steals : int Atomic.t;
}

let fresh_stats () =
  {
    executions = Atomic.make 0;
    popped = Atomic.make 0;
    stolen = Atomic.make 0;
    empty_steals = Atomic.make 0;
  }

let pp_stats ppf s =
  Format.fprintf ppf "executions %d: %d popped, %d stolen, %d empty steals"
    (Atomic.get s.executions) (Atomic.get s.popped) (Atomic.get s.stolen)
    (Atomic.get s.empty_steals)

let task i = Value.Int (500 + i)

let make ?(weak_fences = false) ?(tasks = 2) ?(thieves = 1) ?(steals = 1)
    ?(style = Libspec.Hist) (st : stats) =
  Harness.scenario
    ~name:
      (Printf.sprintf "work-stealing[%d tasks, %d thieves%s]" tasks thieves
         (if weak_fences then ", WEAK FENCES" else ""))
    (fun m ->
      let t = Chaselev.create ~weak_fences m ~name:"dq" in
      let owner =
        (* Push everything, then pop everything still there. *)
        let* () = Prog.for_ 0 (tasks - 1) (fun i -> Chaselev.push t (task i)) in
        let rec drain acc n =
          if n > tasks then Prog.return (Value.Int acc)
          else
            let* v = Chaselev.pop t in
            match v with
            | Value.Null -> Prog.return (Value.Int acc)
            | _ -> drain ((acc * 100) + Value.to_int_exn v - 400) (n + 1)
        in
        drain 0 0
      in
      let thief _ =
        let* r =
          Prog.fold_left
            (fun acc () ->
              let* v = Chaselev.steal t in
              match v with
              | Value.Null -> Prog.return acc
              | _ -> Prog.return ((acc * 100) + Value.to_int_exn v - 400))
            0
            (List.init steals (fun _ -> ()))
        in
        Prog.return (Value.Int r)
      in
      let judge _vs =
        Atomic.incr st.executions;
        let g = Chaselev.graph t in
        let events = Graph.events g in
        let pops = List.filter Event.is_pop events in
        let steals_ev = List.filter Event.is_steal events in
        ignore (Atomic.fetch_and_add st.popped (List.length pops));
        ignore (Atomic.fetch_and_add st.stolen (List.length steals_ev));
        ignore
          (Atomic.fetch_and_add st.empty_steals
             (List.length (List.filter Event.is_empsteal events)));
        (* Conservation: every taken value is a pushed task, taken once. *)
        let taken =
          List.filter_map
            (fun (e : Event.data) ->
              match e.Event.typ with
              | Event.Pop v | Event.Steal v -> Some v
              | _ -> None)
            events
        in
        let distinct = List.sort_uniq Value.compare taken in
        if List.length distinct <> List.length taken then
          Explore.Violation "a task was taken twice"
        else if
          not
            (List.for_all
               (fun v ->
                 match v with
                 | Value.Int n -> n >= 500 && n < 500 + tasks
                 | _ -> false)
               taken)
        then Explore.Violation "a non-task value was taken"
        else Libspec.graph_judge style Libspec.deque g _vs
      in
      (owner :: List.init thieves thief, judge))
