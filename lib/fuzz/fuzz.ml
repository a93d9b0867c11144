open Compass_machine

(* The schedule-fuzzing driver.

   Where the DFS explorer enumerates the decision tree, the fuzzer
   samples it under a *search strategy*:

   - [Uniform]: every choice seeded-uniform — the baseline, and the same
     executions {!Explore.random} samples from the same seed;
   - [Pct]: scheduling choices priority-driven ({!Pct}), data choices
     uniform;
   - [Guided]: coverage-guided — executions that reach a new fingerprint
     or new site pairs ({!Coverage}) enter a corpus of schedule prefixes
     ({!Corpus}); later executions mutate a corpus entry and replay it as
     a clamped prefix with a random tail.

   The executions run on the seeded sampling loop {!Explore.sample}: the
   fuzzer supplies each execution's oracle (built from the seed the loop
   derives from the execution's global index) and an observer that
   feeds the worker's coverage and corpus and notes its first violation.
   Each worker stops at its own first violation, so for a fixed seed and
   job count repeated runs are byte-identical (compare {!fingerprint},
   which excludes wall-clock time). *)

type mode = Uniform | Pct | Guided

let mode_name = function
  | Uniform -> "uniform"
  | Pct -> "pct"
  | Guided -> "guided"

type options = {
  mode : mode;
  execs : int;
  seed : int;
  jobs : int;
  pct_depth : int;  (** PCT priority change points *)
  shrink : bool;  (** shrink the first violation before reporting *)
  corpus_in : Corpus.t option;  (** seed corpus ([--corpus FILE]) *)
  config : Machine.config;
}

let default_options =
  {
    mode = Pct;
    execs = 4000;
    seed = 1;
    jobs = 1;
    pct_depth = 3;
    shrink = true;
    corpus_in = None;
    config = { Machine.default_config with record_accesses = true };
  }

(* Violations an outcome keeps, and the shrinker's replay budget for the
   first of them. *)
let max_violations = 4
let shrink_replays = 20_000

type outcome = {
  scenario : string;
  mode : mode;
  seed : int;
  jobs : int;
  pct_depth : int;
  execs : int;  (** performed (workers stop early on violation) *)
  distinct : int;  (** distinct execution fingerprints *)
  pairs : int;  (** site pairs covered *)
  new_pair_execs : int;
  corpus_size : int;
  corpus : Corpus.t;
  clamped : int;
      (** out-of-range choices clamped while replaying corpus-mutant
          prefixes (0 outside guided mode) *)
  violations : Explore.failure list;
      (** oldest first; the first is shrunk when [options.shrink] *)
  first_violation_exec : int option;  (** global execution index *)
  shrink_stats : Shrink.stats option;
  seconds : float;
}

(* A prefix-replay oracle: scripted (clamped, counted into [clamps]) for
   the prefix, seeded random past it — how corpus mutants run. *)
let prefix_oracle ?clamps st prefix =
  Oracle.make ~sched_aware:false (fun ~pos ~arity ~kind:_ ->
      if pos < Array.length prefix then begin
        let c = prefix.(pos).Decision.choice in
        if c >= arity then begin
          (match clamps with Some r -> incr r | None -> ());
          arity - 1
        end
        else c
      end
      else Random.State.int st arity)

(* One pilot execution counting branching scheduling decisions — the
   schedule length over which PCT samples its change points. *)
let measure_sched_len ~config ~seed scenario_thunk =
  let scenario : Explore.scenario = scenario_thunk () in
  let st = Random.State.make [| seed; 0x9107 |] in
  let count = ref 0 in
  let oracle =
    Oracle.make (fun ~pos:_ ~arity ~kind ->
        (match kind with Oracle.Sched _ -> incr count | Oracle.Data -> ());
        Random.State.int st arity)
  in
  let m = Machine.create ~config () in
  let judge = scenario.Explore.build m in
  ignore (judge (Machine.run m oracle));
  max !count 8

(* One worker's share of a run. *)
type worker = {
  cov : Coverage.t;
  corpus : Corpus.t;
  clamps : int ref;
  mutable first : int option;
      (** the index of its violation, after which it stops *)
}

let sampler opts ~sched_len =
  {
    Explore.worker =
      (fun () ->
        let corpus = Corpus.create () in
        Option.iter
          (fun c -> List.iter (Corpus.add corpus) (Corpus.to_list c))
          opts.corpus_in;
        { cov = Coverage.create (); corpus; clamps = ref 0; first = None });
    oracle =
      (fun w seed ->
        match opts.mode with
        | Uniform -> Oracle.random ~seed
        | Pct -> Pct.oracle ~seed ~depth:opts.pct_depth ~sched_len
        | Guided -> (
            let st = Random.State.make [| seed; 0xf12d |] in
            match Corpus.pick w.corpus st with
            | Some base ->
                let other = Corpus.pick w.corpus st in
                prefix_oracle ~clamps:w.clamps st
                  (Corpus.mutate ?other st base)
            | None -> Oracle.random ~seed));
    observe =
      (fun w i accesses tr verdict ->
        let fb = Coverage.note w.cov accesses in
        if fb.Coverage.fresh || fb.Coverage.new_pairs > 0 then
          Corpus.add w.corpus (Decision.strip_trailing_zeros tr);
        match verdict with
        | Explore.Violation _ -> w.first <- Some i
        | Explore.Pass | Explore.Discard _ -> ());
  }

let run ?(options = default_options) scenario_thunk =
  let t0 = Unix.gettimeofday () in
  let opts =
    { options with execs = max options.execs 0; jobs = max options.jobs 1 }
  in
  let sched_len =
    if opts.mode = Pct then
      measure_sched_len ~config:opts.config ~seed:opts.seed scenario_thunk
    else 1
  in
  let r, workers =
    Explore.sample ~jobs:opts.jobs ~until_violation:true ~config:opts.config
      ~execs:opts.execs ~seed:opts.seed (sampler opts ~sched_len)
      scenario_thunk
  in
  (* merge in worker order — deterministic *)
  let cov = Coverage.create () in
  List.iter (fun w -> Coverage.merge cov w.cov) workers;
  let corpus = Corpus.create () in
  List.iter
    (fun w -> List.iter (Corpus.add corpus) (Corpus.to_list w.corpus))
    workers;
  let first_violation_exec =
    match List.filter_map (fun w -> w.first) workers with
    | [] -> None
    | i :: is -> Some (List.fold_left min i is)
  in
  let kept =
    List.filteri (fun i _ -> i < max_violations) r.Explore.violations
    |> List.map (fun (f : Explore.failure) ->
           { f with trace = Decision.strip_trailing_zeros f.trace })
  in
  let shrink_stats = ref None in
  let kept =
    match kept with
    | f :: rest when opts.shrink ->
        let stats, small =
          Shrink.minimize ~config:opts.config ~max_replays:shrink_replays
            ~scenario:(scenario_thunk ()) ~message:f.Explore.message
            f.Explore.trace
        in
        shrink_stats := Some stats;
        { f with Explore.trace = small } :: rest
    | ks -> ks
  in
  {
    scenario = r.Explore.name;
    mode = opts.mode;
    seed = opts.seed;
    jobs = opts.jobs;
    pct_depth = opts.pct_depth;
    execs = r.Explore.executions;
    distinct = Coverage.distinct cov;
    pairs = Coverage.pair_count cov;
    new_pair_execs = Coverage.new_pair_execs cov;
    corpus_size = Corpus.size corpus;
    corpus;
    clamped = List.fold_left (fun a w -> a + !(w.clamps)) 0 workers;
    violations = kept;
    first_violation_exec;
    shrink_stats = !shrink_stats;
    seconds = Unix.gettimeofday () -. t0;
  }

(* Canonical deterministic projection of an outcome — everything except
   wall-clock time and the corpus value itself.  Two runs with the same
   options produce equal fingerprints; the determinism tests compare
   these. *)
let fingerprint o =
  let script s =
    String.concat ","
      (List.map string_of_int (Array.to_list (Decision.choices s)))
  in
  let viols =
    List.map
      (fun (f : Explore.failure) ->
        Printf.sprintf "%s:[%s]" f.message (script f.trace))
      o.violations
  in
  Printf.sprintf
    "%s|mode=%s|seed=%d|jobs=%d|depth=%d|execs=%d|distinct=%d|pairs=%d|npe=%d|corpus=%d|clamped=%d|first=%s|%s"
    o.scenario (mode_name o.mode) o.seed o.jobs o.pct_depth o.execs o.distinct
    o.pairs o.new_pair_execs o.corpus_size o.clamped
    (match o.first_violation_exec with
    | None -> "-"
    | Some i -> string_of_int i)
    (String.concat ";" viols)

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s: %d fuzz executions (mode %s, seed %d%s%s)@ coverage: %d \
     distinct executions, %d site pairs, %d execs found new pairs, corpus \
     %d%s@ %a@]"
    o.scenario o.execs (mode_name o.mode) o.seed
    (if o.mode = Pct then Printf.sprintf ", depth %d" o.pct_depth else "")
    (if o.jobs > 1 then Printf.sprintf ", %d jobs" o.jobs else "")
    o.distinct o.pairs o.new_pair_execs o.corpus_size
    (if o.clamped > 0 then Printf.sprintf ", %d choices clamped" o.clamped
     else "")
    (fun ppf o ->
      match (o.first_violation_exec, o.violations) with
      | None, _ | _, [] -> Format.fprintf ppf "no violation found"
      | Some i, f :: _ ->
          Format.fprintf ppf "first violation at execution %d%s@ - %s@ - script [%s]"
            i
            (match o.shrink_stats with
            | Some (s : Shrink.stats) ->
                Printf.sprintf
                  " (script %d -> %d choices, %d shrink replays%s)"
                  s.initial_len s.final_len s.replays
                  (if s.clamped > 0 then
                     Printf.sprintf ", %d clamped" s.clamped
                   else "")
            | None -> "")
            f.Explore.message
            (String.concat " "
               (List.map string_of_int
                  (Array.to_list (Decision.choices f.Explore.trace)))))
    o

let outcome_to_json o =
  let open Compass_util in
  Jsonout.Obj
    [
      ("scenario", Jsonout.Str o.scenario);
      ("mode", Jsonout.Str (mode_name o.mode));
      ("seed", Jsonout.Int o.seed);
      ("jobs", Jsonout.Int o.jobs);
      ("pct_depth", Jsonout.Int o.pct_depth);
      ("execs", Jsonout.Int o.execs);
      ("distinct", Jsonout.Int o.distinct);
      ("pairs", Jsonout.Int o.pairs);
      ("new_pair_execs", Jsonout.Int o.new_pair_execs);
      ("corpus_size", Jsonout.Int o.corpus_size);
      ("clamped", Jsonout.Int o.clamped);
      ( "first_violation_exec",
        Jsonout.opt (fun i -> Jsonout.Int i) o.first_violation_exec );
      ( "violations",
        Jsonout.List
          (List.map
             (fun (f : Explore.failure) ->
               Jsonout.Obj
                 [
                   ("message", Jsonout.Str f.message);
                   ("trace", Decision.trace_to_json f.trace);
                 ])
             o.violations) );
      ( "shrink",
        Jsonout.opt
          (fun (s : Shrink.stats) ->
            Jsonout.Obj
              [
                ("replays", Jsonout.Int s.replays);
                ("initial_len", Jsonout.Int s.initial_len);
                ("final_len", Jsonout.Int s.final_len);
                ("clamped", Jsonout.Int s.clamped);
              ])
          o.shrink_stats );
      ("seconds", Jsonout.Float o.seconds);
    ]
