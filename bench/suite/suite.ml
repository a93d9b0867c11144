(* The repository benchmark: five checker workloads, each timed end to end
   and, in a separate traced run, split by layer from outside the library.

     suite.exe --workload W [--seed S] [--seconds N] [--trace FILE] [--quick]

   One process, one domain, one workload per invocation.  The load is a
   closed loop: repetitions of the workload, each on freshly set-up inputs,
   run back to back until [--seconds] have passed.  [--trace] alternates
   untraced and traced repetitions and reports the per-layer metrics
   instead of the end-to-end ones; [--quick] shrinks every budget for a
   smoke check and skips the completeness gates.  The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]; the exit code is 1 when
   a correctness gate fails.  README.md lists the workloads, metrics,
   gates and the layer-to-module map. *)

open Compass_event
open Compass_machine
open Compass_spec
open Compass_clients
module Sim = Compass_sim.Sim
module Mgc = Compass_sim.Mgc
module Simrel = Compass_sim.Simrel
module Fuzz = Compass_fuzz.Fuzz
module Shrink = Compass_fuzz.Shrink

(* -- layers, timed around their public entry points ------------------------ *)

let explore_l = Spans.layer "explore"
let build_l = Spans.layer "setup.build"
let judge_l = Spans.layer "spec.judge"
let simrel_l = Spans.layer "sim.simrel"

(* machine steps of judged executions (traced repetitions only) *)
let steps = ref 0

let explored traced f = if traced then Spans.span explore_l f else f ()

(* The scenario with its build closure and the judge it returns wrapped in
   spans; the exploration it drives is unchanged. *)
let traced_scenario (sc : Explore.scenario) =
  {
    sc with
    Explore.build =
      (fun m ->
        let judge = Spans.span build_l (fun () -> sc.Explore.build m) in
        fun o ->
          steps := !steps + Machine.steps m;
          Spans.span judge_l (fun () -> judge o));
  }

(* -- one repetition's result ------------------------------------------------- *)

type result = {
  executions : int;
  runs : int;  (** executions plus the runs a reduction discarded *)
  counts : (string * int) list;  (** exact; must repeat in every repetition *)
  gates : (string * bool) list;  (** pinned verdicts *)
  parts : float list;
      (** seconds of each independent search, when the verdict needs
          several (one per structure in sim-d2) *)
}

let now () = float_of_int (Spans.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let count r name = Option.value ~default:0 (List.assoc_opt name r.counts)

let entry key =
  match Specreg.find key with
  | Some e -> e
  | None -> failwith ("no registered structure: " ^ key)

let queue_factory key =
  match (entry key).Libspec.impl with
  | Specreg.Queue f -> f
  | _ -> failwith ("no registered queue implementation: " ^ key)

(* One build on a fresh machine — what every search does before its first
   decision — so that set-up covers Machine.create/alloc/spawn and the
   structure's constructor. *)
let prime ?config (sc : Explore.scenario) =
  let (_judge : Machine.outcome -> Explore.verdict) =
    sc.Explore.build (Machine.create ?config ())
  in
  ()

(* -- explore-ms, dpor-ms, hist-hw ---------------------------------------------- *)

let explore_result ~gates (r : Explore.report) =
  {
    executions = r.Explore.executions;
    runs = r.Explore.executions + r.Explore.dpor_pruned + r.Explore.rf_pruned;
    counts =
      [
        ("executions", r.Explore.executions);
        ("passed", r.Explore.passed);
        ("discarded", r.Explore.discarded);
        ("pruned", r.Explore.pruned);
        ("dpor_pruned", r.Explore.dpor_pruned);
        ("rf_pruned", r.Explore.rf_pruned);
      ];
    gates = ("verdict pass", Explore.ok r) :: gates r;
    parts = [];
  }

(* 2 enqueuers x [deqers] dequeuers x 1 op on a registered queue.  [budget]
   [None] runs the search to completion. *)
let queue_search ~quick ?style ~key ~deqers ~reduce ~budget () =
  let sc =
    Harness.queue_workload ?style (queue_factory key) ~enqers:2 ~deqers ~ops:1 ()
  in
  prime sc;
  let max_execs =
    match budget with
    | _ when quick -> 2_000
    | Some n -> n
    | None -> max_int
  in
  let gates (r : Explore.report) =
    match budget with
    | Some _ -> [ ("executions = budget", r.Explore.executions = max_execs) ]
    | None -> if quick then [] else [ ("complete", r.Explore.complete) ]
  in
  fun traced ->
    let sc = if traced then traced_scenario sc else sc in
    explore_result ~gates (explored traced (fun () -> Explore.dfs ~max_execs ~reduce sc))

(* -- sim-d2 ----------------------------------------------------------------------- *)

(* The structures and their expected verdicts: hw breaks at depth 2 on the
   weak empty dequeue (a genuine finding, pinned).  [--quick] runs depth 1,
   where every structure simulates, and pins only those expected to. *)
let sim_structs = [ ("ms", true); ("lock-queue", true); ("treiber", true); ("hw", false) ]

let sim_options ~quick =
  {
    Sim.default_options with
    mgc_depth = (if quick then 1 else 2);
    max_execs = 100_000;
    jobs = 1;
    reduce = Machine.RDporRf;
    shrink = true;
  }

type sim_row = {
  key : string;
  s_ok : bool;
  s_complete : bool;
  localised : bool;  (** a failing structure's witness names its break *)
  s_executions : int;
  sim_states : int;
  dpor_pruned : int;
  rf_pruned : int;
}

let sim_result ~quick timed_rows =
  let rows = List.map fst timed_rows in
  let sum f = List.fold_left (fun n r -> n + f r) 0 rows in
  let executions = sum (fun r -> r.s_executions) in
  {
    executions;
    runs = executions + sum (fun r -> r.dpor_pruned + r.rf_pruned);
    counts =
      ("executions", executions)
      :: ("sim_states", sum (fun r -> r.sim_states))
      :: ("dpor_pruned", sum (fun r -> r.dpor_pruned))
      :: ("rf_pruned", sum (fun r -> r.rf_pruned))
      :: List.concat_map
           (fun r ->
             [ (r.key ^ ".executions", r.s_executions); (r.key ^ ".sim_states", r.sim_states) ])
           rows;
    gates =
      List.concat_map
        (fun r ->
          let expect = List.assoc r.key sim_structs in
          match (quick, expect) with
          | true, true -> [ (r.key ^ " simulates", r.s_ok) ]
          | true, false -> []
          | false, true -> [ (r.key ^ " simulates", r.s_ok); (r.key ^ " complete", r.s_complete) ]
          | false, false ->
              [
                (r.key ^ " breaks", not r.s_ok);
                (r.key ^ " complete", r.s_complete);
                (r.key ^ " witness localised", r.localised);
              ])
        rows;
    parts = List.map snd timed_rows;
  }

let rows_sum f (rows : Explore.report list) = List.fold_left (fun n r -> n + f r) 0 rows

let sim_row_of_report (r : Sim.report) =
  let reports = List.map (fun row -> row.Sim.c_report) r.Sim.rows in
  {
    key = r.Sim.struct_key;
    s_ok = r.Sim.ok;
    s_complete = r.Sim.complete;
    localised =
      (match r.Sim.witness with Some w -> w.Sim.w_detail <> None | None -> false);
    s_executions = r.Sim.executions;
    sim_states = r.Sim.sim_states;
    dpor_pruned = rows_sum (fun r -> r.Explore.dpor_pruned) reports;
    rf_pruned = rows_sum (fun r -> r.Explore.rf_pruned) reports;
  }

(* The traced counterpart of [Sim.run]: the same clients, judge, search and
   witness shrinking, rebuilt from public functions so that [Simrel.check]
   can be timed.  The count gates require it to reproduce [Sim.run]'s
   executions and search states exactly; otherwise the trace would measure
   a different program. *)
let sim_mirror ~(options : Sim.options) (e : Libspec.entry) =
  let kind = Option.get e.Libspec.spec.Libspec.kind in
  let judge states g = function
    | Machine.Finished _ -> (
        match Spans.span simrel_l (fun () -> Simrel.check kind g) with
        | Simrel.Simulates { states = s } ->
            states := !states + s;
            Explore.Pass
        | Simrel.Breaks b ->
            states := !states + b.Simrel.states;
            Explore.Violation
              (Format.asprintf
                 "simulation break at commit %a by thread %d: no legal \
                  commit-point assignment"
                 Event.pp_typ b.Simrel.at.Event.typ b.Simrel.at.Event.tid)
        | Simrel.Gave_up { states = s } ->
            states := !states + s;
            Explore.Discard "simulation search budget exhausted")
    | Machine.Fault s -> Explore.Violation ("simulation break (concrete fault): " ^ s)
    | Machine.Blocked s -> Explore.Discard s
    | Machine.Bounded -> Explore.Discard "bounded"
    | Machine.Pruned -> Explore.Discard "pruned"
  in
  let states = ref 0 in
  let scenario c = traced_scenario (Mgc.scenario e ~judge:(judge states) c) in
  (* replay the shrunk witness with a non-counting judge and localise it *)
  let localise c script =
    let graph = ref None in
    let sc =
      traced_scenario
        (Mgc.scenario e ~judge:(fun g o -> graph := Some g; judge (ref 0) g o) c)
    in
    let r = Explore.replay ~config:Machine.default_config sc script in
    match (r.Explore.r_outcome, !graph) with
    | Machine.Fault _, Some _ -> true
    | Machine.Finished _, Some g -> (
        match Simrel.check kind g with Simrel.Breaks _ -> true | _ -> false)
    | _ -> false
  in
  let witness = ref None in
  let reports =
    List.map
      (fun c ->
        let r =
          Explore.dfs ~max_execs:options.Sim.max_execs ~reduce:options.Sim.reduce
            ~incremental:options.Sim.incremental (scenario c)
        in
        (if !witness = None then
           match r.Explore.violations with
           | f :: _ ->
               let _, script =
                 Shrink.minimize ~max_replays:options.Sim.max_replays
                   ~scenario:(scenario c) ~message:f.Explore.message f.Explore.trace
               in
               witness := Some (localise c script)
           | [] -> ());
        r)
      (Mgc.generate ~depth:options.Sim.mgc_depth ())
  in
  {
    key = e.Libspec.key;
    s_ok = List.for_all Explore.ok reports;
    s_complete = List.for_all (fun r -> r.Explore.complete) reports;
    localised = Option.value ~default:false !witness;
    s_executions = rows_sum (fun r -> r.Explore.executions) reports;
    sim_states = !states;
    dpor_pruned = rows_sum (fun r -> r.Explore.dpor_pruned) reports;
    rf_pruned = rows_sum (fun r -> r.Explore.rf_pruned) reports;
  }

let sim_d2 ~quick () =
  let options = sim_options ~quick in
  let entries = List.map (fun (k, _) -> entry k) sim_structs in
  let clients = Mgc.generate ~depth:options.Sim.mgc_depth () in
  List.iter
    (fun e ->
      List.iter
        (fun c -> prime (Mgc.scenario e ~judge:(fun _ _ -> Explore.Pass) c))
        clients)
    entries;
  fun traced ->
    sim_result ~quick
      (List.map
         (fun e ->
           timed (fun () ->
               if traced then explored true (fun () -> sim_mirror ~options e)
               else sim_row_of_report (Sim.run ~options e)))
         entries)

(* -- fuzz-ms ---------------------------------------------------------------------- *)

let fuzz_ms ~quick ~seed () =
  let factory = queue_factory "ms" in
  let options =
    {
      Fuzz.default_options with
      mode = Fuzz.Pct;
      pct_depth = 3;
      execs = (if quick then 500 else 5_000);
      seed;
      jobs = 1;
      shrink = false;
    }
  in
  let mk () = Mp.make factory (Mp.fresh_stats ()) in
  prime ~config:options.Fuzz.config (mk ());
  fun traced ->
    let thunk = if traced then fun () -> traced_scenario (mk ()) else mk in
    let o = explored traced (fun () -> Fuzz.run ~options thunk) in
    {
      executions = o.Fuzz.execs;
      runs = o.Fuzz.execs;
      counts =
        [
          ("executions", o.Fuzz.execs);
          ("distinct", o.Fuzz.distinct);
          ("pairs", o.Fuzz.pairs);
          ("new_pair_execs", o.Fuzz.new_pair_execs);
          ("corpus_size", o.Fuzz.corpus_size);
        ];
      gates =
        [
          ("verdict pass", o.Fuzz.violations = []);
          ("executions = budget", o.Fuzz.execs = options.Fuzz.execs);
        ];
      parts = [];
    }

(* -- the workloads ------------------------------------------------------------------ *)

(* Each entry is the workload's set-up: it builds the inputs and returns
   one repetition, traced or not. *)
let workloads : (string * (quick:bool -> seed:int -> bool -> result)) list =
  [
    ( "explore-ms",
      fun ~quick ~seed:_ ->
        queue_search ~quick ~key:"ms" ~deqers:1 ~reduce:Machine.RNone
          ~budget:(Some 50_000) () );
    ( "dpor-ms",
      fun ~quick ~seed:_ ->
        queue_search ~quick ~key:"ms" ~deqers:1 ~reduce:Machine.RDpor ~budget:None () );
    ( "hist-hw",
      fun ~quick ~seed:_ ->
        queue_search ~quick ~style:Styles.Hist ~key:"hw" ~deqers:2
          ~reduce:Machine.RNone ~budget:(Some 20_000) () );
    ("sim-d2", fun ~quick ~seed:_ -> sim_d2 ~quick ());
    ("fuzz-ms", fun ~quick ~seed -> fuzz_ms ~quick ~seed ());
  ]

(* -- measurement ------------------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type rep = {
  index : int;
  traced : bool;
  setup : float;  (** seconds to set up this repetition's inputs *)
  wall : float;
  res : result;
  majors : int;
  layers : (string * Spans.agg) list;  (** traced repetitions only *)
  rep_steps : int;
}

(* The closed loop: set up fresh inputs, run one repetition on them, and
   go again until [seconds] have passed.  Under [trace], untraced and
   traced repetitions alternate, so both see the same host conditions. *)
let run_reps ~seconds ~trace setup =
  let t0 = now () in
  let rec loop i acc =
    let have traced = List.exists (fun r -> r.traced = traced) acc in
    if now () -. t0 >= seconds && have false && ((not trace) || have true) then
      List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      (* every repetition, and its set-up, starts from the same heap *)
      Gc.compact ();
      let rep_fn, setup = timed setup in
      let majors0 = (Gc.quick_stat ()).Gc.major_collections in
      steps := 0;
      let (res, wall), layers =
        if traced then Spans.repetition i (fun () -> timed (fun () -> rep_fn true))
        else (timed (fun () -> rep_fn false), [])
      in
      let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
      loop (i + 1)
        ({ index = i; traced; setup; wall; res; majors; layers; rep_steps = !steps } :: acc)
    end
  in
  loop 0 []

(* -- gates -------------------------------------------------------------------------- *)

(* Pinned verdicts in every repetition; exact counts equal to the first
   repetition's, traced repetitions included (wrapping must not change what
   runs); and per traced repetition, layer self times summing to its wall
   time within 10%. *)
let gates reps =
  let first = (List.hd reps).res in
  List.concat_map
    (fun r ->
      let self name = (List.assoc name r.layers).Spans.self_ns in
      r.res.gates
      @ List.map
          (fun (name, n) -> (name ^ " repeats", List.assoc_opt name r.res.counts = Some n))
          first.counts
      @
      if r.traced then
        let sum =
          float_of_int
            (self "explore" + self "setup.build" + self "spec.judge" + self "sim.simrel")
          /. 1e9
        in
        [ ("layer self times sum to wall", Float.abs (sum -. r.wall) <= 0.1 *. r.wall) ]
      else [])
    reps

(* -- metrics ---------------------------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  dist : (float * float * int) option;  (** median, worst sample, samples *)
}

let metric name unit_ value = { name; unit_; value; dist = None }

let fold f = function x :: xs -> List.fold_left f x xs | [] -> nan

(* A timing reports its best sample, with the median and the worst one
   printed alongside.  Other tenants of a shared host only ever add time,
   in stretches long enough to move a median by half its value (README.md,
   "Why the best repetition"). *)
let sampled name unit_ ~best ~worst xs =
  { name; unit_; value = best; dist = Some (median xs, fold worst xs, List.length xs) }

(* The best time to the verdict: the sum, over the independent searches it
   needs, of each one's best time (for a single search, the fastest
   repetition). *)
let best_wall reps =
  match (List.hd reps).res.parts with
  | [] -> fold Float.min (List.map (fun r -> r.wall) reps)
  | parts ->
      List.fold_left ( +. ) 0.
        (List.mapi
           (fun k _ -> fold Float.min (List.map (fun r -> List.nth r.res.parts k) reps))
           parts)

let end_to_end reps =
  let walls = List.map (fun r -> r.wall) reps in
  let wall = best_wall reps in
  let execs = float_of_int (List.hd reps).res.executions in
  let setups = List.map (fun r -> r.setup) reps in
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    sampled "wall_s" "s" ~best:wall ~worst:Float.max walls;
    sampled "execs_per_s" "1/s" ~best:(execs /. wall) ~worst:Float.min
      (List.map (fun w -> execs /. w) walls);
    sampled "setup_s" "s" ~best:(fold Float.min setups) ~worst:Float.max setups;
    metric "peak_heap_mb" "MB" (float_of_int (words * (Sys.word_size / 8)) /. 1e6);
  ]

(* Per-layer values all come from the fastest traced repetition, so that
   they describe one run and its shares add up; the overhead compares it
   with the fastest untraced one. *)
let per_layer ~untraced traced =
  let fastest = function
    | r :: rs -> List.fold_left (fun a r -> if r.wall < a.wall then r else a) r rs
    | [] -> invalid_arg "per_layer"
  in
  let r = fastest traced and u = fastest untraced in
  let fl = float_of_int in
  let div a b = if b = 0 then 0. else a /. fl b in
  let agg name = List.assoc name r.layers in
  let calls name = (agg name).Spans.count in
  let self_us name = fl (agg name).Spans.self_ns /. 1e3 in
  let share name = self_us name /. (r.wall *. 1e6) in
  let runs = r.res.runs in
  [
    metric "explore.self_us_per_run" "us" (div (self_us "explore") runs);
    metric "explore.runs" "count" (fl runs);
    metric "explore.executions" "count" (fl r.res.executions);
    metric "explore.useful_ratio" "ratio" (div (fl r.res.executions) runs);
    metric "explore.pruned" "count" (fl (count r.res "pruned"));
    metric "explore.dpor_pruned" "count" (fl (count r.res "dpor_pruned"));
    metric "explore.rf_pruned" "count" (fl (count r.res "rf_pruned"));
    metric "explore.minor_words_per_run" "words" (div (agg "explore").Spans.self_words runs);
    metric "explore.share" "ratio" (share "explore");
    metric "machine.steps_per_exec" "count" (div (fl r.rep_steps) (calls "spec.judge"));
    metric "spec.judge_calls" "count" (fl (calls "spec.judge"));
    metric "spec.judge_us" "us" (self_us "spec.judge");
    metric "spec.judge_minor_words" "words"
      (div (agg "spec.judge").Spans.self_words (calls "spec.judge"));
    metric "spec.share" "ratio" (share "spec.judge");
    metric "sim.simrel_calls" "count" (fl (calls "sim.simrel"));
    metric "sim.states_per_check" "count"
      (div (fl (count r.res "sim_states")) (calls "sim.simrel"));
    metric "sim.share" "ratio" (share "sim.simrel");
    metric "setup.build_calls" "count" (fl (calls "setup.build"));
    metric "setup.build_us" "us" (self_us "setup.build");
    metric "setup.share" "ratio" (share "setup.build");
    metric "fuzz.distinct" "count" (fl (count r.res "distinct"));
    metric "fuzz.pairs" "count" (fl (count r.res "pairs"));
    metric "gc.major_collections" "count" (fl u.majors);
    metric "trace.overhead" "ratio" ((r.wall /. u.wall) -. 1.);
  ]

(* -- output ------------------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~failed ~attempted metrics =
  List.iter
    (fun m ->
      Printf.printf "%-28s %.6g %s%s\n" m.name m.value m.unit_
        (match m.dist with
        | Some (med, worst, n) ->
            Printf.sprintf "  (median %.6g, worst %.6g, n %d)" med worst n
        | None -> ""))
    metrics;
  Printf.printf "%-28s %.6g ratio\n" "failed_frac"
    (float_of_int failed /. float_of_int attempted);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_num m.value) m.unit_)
          metrics))

let usage () =
  prerr_endline
    ("usage: suite.exe --workload ("
    ^ String.concat "|" (List.map fst workloads)
    ^ ") [--seed S] [--seconds N] [--trace FILE] [--quick]");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref None and quick = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: f :: rest -> trace := Some f; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let setup =
    match List.assoc_opt !workload workloads with Some s -> s | None -> usage ()
  in
  let reps =
    run_reps ~seconds:!seconds ~trace:(!trace <> None) (fun () ->
        setup ~quick:!quick ~seed:!seed)
  in
  let untraced, traced = List.partition (fun r -> not r.traced) reps in
  let metrics =
    match !trace with
    | None -> end_to_end untraced
    | Some _ -> per_layer ~untraced traced
  in
  let gates =
    gates reps @ List.map (fun m -> (m.name ^ " is finite", Float.is_finite m.value)) metrics
  in
  let failing = List.filter (fun (_, ok) -> not ok) gates in
  List.iter (fun (g, _) -> Printf.eprintf "gate failed: %s\n" g) failing;
  (match !trace with
  | Some file ->
      let open Compass_util.Jsonout in
      let floats f rs = List (List.map (fun r -> Float (f r)) rs) in
      Spans.write file
        ~header:
          [
            ("workload", Str !workload);
            ("seed", Int !seed);
            ("untraced_wall_s", floats (fun r -> r.wall) untraced);
            ("traced_wall_s", floats (fun r -> r.wall) traced);
            ("setup_s", floats (fun r -> r.setup) reps);
          ]
        (List.map (fun r -> (r.index, r.layers)) traced)
  | None -> ());
  print_result ~failed:(List.length failing) ~attempted:(List.length gates) metrics;
  if failing <> [] then exit 1
