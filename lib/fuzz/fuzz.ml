open Compass_machine

(* The schedule-fuzzing driver.

   Where the DFS explorer enumerates the decision tree, the fuzzer
   samples it under a *search strategy*:

   - [Uniform]: every choice seeded-uniform — the baseline;
   - [Pct]: scheduling choices priority-driven ({!Pct}), data choices
     uniform;
   - [Guided]: coverage-guided — executions that reach a new fingerprint
     or new site pairs ({!Coverage}) enter a corpus of schedule prefixes
     ({!Corpus}); later executions mutate a corpus entry and replay it as
     a clamped prefix with a random tail.

   Every execution's oracle is derived from [Rng.derive seed i] where [i]
   is the execution's *global* index, and worker [w] of [jobs] runs the
   indices congruent to [w] — so for a fixed seed the run is reproducible
   at any job count, and repeated runs are byte-identical (compare
   {!fingerprint}, which excludes wall-clock time).  Workers stop at
   their own first violation (no cross-worker stop flag: a shared flag
   would make the execution set timing-dependent). *)

type mode = Uniform | Pct | Guided

let mode_name = function
  | Uniform -> "uniform"
  | Pct -> "pct"
  | Guided -> "guided"

let mode_of_string = function
  | "uniform" -> Some Uniform
  | "pct" -> Some Pct
  | "guided" -> Some Guided
  | _ -> None

type options = {
  mode : mode;
  execs : int;
  seed : int;
  jobs : int;
  pct_depth : int;  (** PCT priority change points *)
  sched_len : int;  (** 0: measure with a pilot execution *)
  stop_on_violation : bool;
  max_violations : int;
  shrink : bool;  (** shrink the first violation before reporting *)
  shrink_replays : int;
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
    sched_len = 0;
    stop_on_violation = true;
    max_violations = 4;
    shrink = true;
    shrink_replays = 20_000;
    corpus_in = None;
    config = { Machine.default_config with record_accesses = true };
  }

type outcome = {
  scenario : string;
  mode : mode;
  seed : int;
  jobs : int;
  pct_depth : int;
  execs : int;  (** performed (workers may stop early on violation) *)
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
   [sched_len] over which PCT samples its change points. *)
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

type worker_result = {
  w_execs : int;
  w_cov : Coverage.t;
  w_corpus : Corpus.t;
  w_clamped : int;
  w_violations : (int * Explore.failure) list;  (** (global index, f) *)
}

let run_worker opts scenario_thunk ~worker ~sched_len =
  let scenario : Explore.scenario = scenario_thunk () in
  let cov = Coverage.create () in
  let corpus = Corpus.create () in
  (match opts.corpus_in with
  | Some c -> List.iter (Corpus.add corpus) (Corpus.to_list c)
  | None -> ());
  let execs = ref 0 in
  let clamps = ref 0 in
  let violations = ref [] in
  let stop = ref false in
  let i = ref worker in
  while (not !stop) && !i < opts.execs do
    let seed_e = Rng.derive opts.seed !i in
    let st = Random.State.make [| seed_e; 0xf12d |] in
    let oracle =
      match opts.mode with
      | Uniform -> Oracle.random ~seed:seed_e
      | Pct -> Pct.oracle ~seed:seed_e ~depth:opts.pct_depth ~sched_len
      | Guided -> (
          match Corpus.pick corpus st with
          | Some base ->
              let other = Corpus.pick corpus st in
              prefix_oracle ~clamps st (Corpus.mutate ?other st base)
          | None -> Oracle.random ~seed:seed_e)
    in
    let m = Machine.create ~config:opts.config () in
    let judge = scenario.Explore.build m in
    let outcome = Machine.run m oracle in
    let verdict = judge outcome in
    incr execs;
    let fb = Coverage.note cov (Machine.accesses m) in
    let tr = Decision.strip_trailing_zeros (Oracle.trace oracle) in
    if fb.Coverage.fresh || fb.Coverage.new_pairs > 0 then
      Corpus.add corpus tr;
    (match verdict with
    | Explore.Violation msg ->
        violations := (!i, { Explore.message = msg; trace = tr }) :: !violations;
        if opts.stop_on_violation then stop := true
    | Explore.Pass | Explore.Discard _ -> ());
    i := !i + opts.jobs
  done;
  {
    w_execs = !execs;
    w_cov = cov;
    w_corpus = corpus;
    w_clamped = !clamps;
    w_violations = List.rev !violations;
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let run ?(options = default_options) scenario_thunk =
  let t0 = Unix.gettimeofday () in
  let opts =
    { options with execs = max options.execs 0; jobs = max options.jobs 1 }
  in
  let name = (scenario_thunk () : Explore.scenario).Explore.name in
  let sched_len =
    if opts.sched_len > 0 then opts.sched_len
    else if opts.mode = Pct then
      measure_sched_len ~config:opts.config ~seed:opts.seed scenario_thunk
    else 1
  in
  let results =
    if opts.jobs = 1 then [ run_worker opts scenario_thunk ~worker:0 ~sched_len ]
    else
      List.init opts.jobs (fun w ->
          Domain.spawn (fun () ->
              run_worker opts scenario_thunk ~worker:w ~sched_len))
      |> List.map Domain.join
  in
  (* merge in worker order — deterministic *)
  let cov = Coverage.create () in
  List.iter (fun r -> Coverage.merge cov r.w_cov) results;
  let corpus = Corpus.create () in
  List.iter
    (fun r -> List.iter (Corpus.add corpus) (Corpus.to_list r.w_corpus))
    results;
  let execs = List.fold_left (fun a r -> a + r.w_execs) 0 results in
  let clamped = List.fold_left (fun a r -> a + r.w_clamped) 0 results in
  let all =
    List.concat_map (fun r -> r.w_violations) results
    |> List.sort (fun (i, _) (j, _) -> compare i j)
  in
  let first_violation_exec =
    match all with [] -> None | (i, _) :: _ -> Some i
  in
  let kept = take opts.max_violations (List.map snd all) in
  let shrink_stats = ref None in
  let kept =
    match kept with
    | f :: rest when opts.shrink ->
        let stats, small =
          Shrink.minimize ~config:opts.config ~max_replays:opts.shrink_replays
            ~scenario:(scenario_thunk ()) ~message:f.Explore.message
            f.Explore.trace
        in
        shrink_stats := Some stats;
        { f with Explore.trace = small } :: rest
    | ks -> ks
  in
  {
    scenario = name;
    mode = opts.mode;
    seed = opts.seed;
    jobs = opts.jobs;
    pct_depth = opts.pct_depth;
    execs;
    distinct = Coverage.distinct cov;
    pairs = Coverage.pair_count cov;
    new_pair_execs = Coverage.new_pair_execs cov;
    corpus_size = Corpus.size corpus;
    corpus;
    clamped;
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
