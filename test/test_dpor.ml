open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_clients
open Prog.Syntax

(* Source-DPOR differential suite.  DPOR and the unreduced search must
   agree on verdicts and on the set of distinct violations everywhere;
   DPOR must count no more executions (dpor <= unreduced); and the DPOR
   integration must be engine-independent: replay-from-root,
   incremental, and work stealing at 1/2/4 jobs all reach the same
   verdicts. *)

let vi n = Value.Int n

let distinct_msgs = Test_explore.distinct_msgs
let check_equiv = Test_explore.check_equiv

let scenarios () =
  [
    ( "mp-queue",
      fun () -> Mp.make Msqueue.instantiate (Mp.fresh_stats ()) );
    ( "mp-queue rlx flag",
      fun () ->
        Mp.make ~flag_write:Mode.Rlx ~flag_read:Mode.Rlx Msqueue.instantiate
          (Mp.fresh_stats ()) );
    ( "hw-queue",
      fun () -> Mp.make Hwqueue.instantiate (Mp.fresh_stats ()) );
    ( "treiber",
      fun () ->
        Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:1
          ~ops:1 () );
    ("seeded-violation", fun () -> Test_explore.seeded_mp_violation ());
  ]

(* -- dpor == unreduced on the client scenarios ---------------------------------- *)

let test_scenario_differential () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let full = Explore.dfs ~max_execs (mk ()) in
      let dpor = Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ()) in
      Alcotest.(check bool) (name ^ ": unreduced exhausts") true
        full.Explore.complete;
      check_equiv ~name:(name ^ " dpor vs unreduced") full dpor;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor %d <= unreduced %d executions" name
           dpor.Explore.executions full.Explore.executions)
        true
        (dpor.Explore.executions <= full.Explore.executions))
    (scenarios ())

(* -- engine independence: ±incremental, parallel jobs ------------------------- *)

let test_engine_independence () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let reference =
        Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ())
      in
      let replay =
        Explore.dfs ~reduce:Machine.RDpor ~incremental:false ~max_execs
          (mk ())
      in
      (* One driver, one task order: the replay engine must reproduce the
         incremental search count for count. *)
      check_equiv ~name:(name ^ " dpor replay-from-root") reference replay;
      Alcotest.(check int)
        (name ^ ": replay executions")
        reference.Explore.executions replay.Explore.executions;
      (* Parallel workers race on the shared DPOR nodes, so the count may
         wobble; verdicts, violation sets and completeness may not. *)
      List.iter
        (fun jobs ->
          let par =
            Explore.dfs ~jobs ~reduce:Machine.RDpor ~max_execs (mk ())
          in
          check_equiv
            ~name:(Printf.sprintf "%s dpor jobs %d" name jobs)
            reference par)
        [ 1; 2; 4 ])
    (scenarios ())

(* -- litmus battery: verdicts preserved, counts monotone ---------------------- *)

let test_litmus_differential () =
  List.iter
    (fun mk ->
      let t_full = mk () and t_dpor = mk () in
      let ok_full, r_full, _ = Litmus.verdict t_full in
      let ok_dpor, r_dpor, _ = Litmus.verdict ~reduce:Machine.RDpor t_dpor in
      let name = r_full.Explore.name in
      Alcotest.(check bool) (name ^ ": dpor verdict") ok_full ok_dpor;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor %d <= full %d" name
           r_dpor.Explore.executions r_full.Explore.executions)
        true
        (r_dpor.Explore.executions <= r_full.Explore.executions))
    (List.map (fun t () -> t) (Litmus.all ()))

(* -- reads-from classes: dpor-rf counts one execution per rf⊕mo graph --------- *)

(* Exhaustive census: wrap a scenario so every counted (non-[Pruned])
   run records its {!Explore.rf_class_key} into [classes].  Run under
   [RNone] with access recording on, the table afterwards holds every
   distinct execution graph the scenario can produce — the ground truth
   [--reduce=dpor-rf] must match exactly. *)
let census_config = { Machine.default_config with Machine.record_accesses = true }

let with_census classes (sc : Explore.scenario) =
  {
    sc with
    Explore.build =
      (fun m ->
        let judge = sc.Explore.build m in
        fun outcome ->
          (match outcome with
          | Machine.Pruned -> ()
          | _ ->
              Hashtbl.replace classes
                (Explore.rf_class_key ~outcome (Machine.accesses m))
                ());
          judge outcome);
  }

let rf_census_litmus () =
  [
    ("corr", Litmus.corr);
    ("cowr", Litmus.cowr);
    ("sb", fun () -> Litmus.sb ());
    ("iriw", Litmus.iriw);
  ]

let test_rf_census () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let classes = Hashtbl.create 64 in
      let t = mk () in
      let full =
        Explore.dfs ~config:census_config ~max_execs
          (with_census classes t.Litmus.scenario)
      in
      Alcotest.(check bool) (name ^ ": exhaustive census complete") true
        full.Explore.complete;
      let n_classes = Hashtbl.length classes in
      Alcotest.(check bool) (name ^ ": some classes observed") true
        (n_classes > 0);
      (* dpor-rf counts exactly one execution per distinct class, and
         books every duplicate completed run as rf_pruned *)
      let rf =
        Explore.dfs ~reduce:Machine.RDporRf ~max_execs (mk ()).Litmus.scenario
      in
      Alcotest.(check bool) (name ^ ": dpor-rf complete") true
        rf.Explore.complete;
      Alcotest.(check int)
        (Printf.sprintf "%s: one execution per rf-class (census %d)" name
           n_classes)
        n_classes rf.Explore.executions;
      (* the same census through the replay-from-root engine and the
         parallel driver: the class count is enumeration-order
         independent *)
      let replay =
        Explore.dfs ~reduce:Machine.RDporRf ~incremental:false ~max_execs
          (mk ()).Litmus.scenario
      in
      Alcotest.(check int)
        (name ^ ": replay-from-root counts the same classes")
        n_classes replay.Explore.executions;
      List.iter
        (fun jobs ->
          let par =
            Explore.dfs ~jobs ~reduce:Machine.RDporRf ~max_execs
              (mk ()).Litmus.scenario
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: dpor-rf jobs %d complete" name jobs)
            true par.Explore.complete;
          Alcotest.(check int)
            (Printf.sprintf "%s: dpor-rf jobs %d counts the same classes" name
               jobs)
            n_classes par.Explore.executions)
        [ 1; 2 ])
    (rf_census_litmus ())

(* -- the byte key against the formatted key ----------------------------------

   {!Explore.rf_class_key} encodes as bytes the tuple {!Rfkey_format.key}
   prints as text.  Every counted run of each input records both keys;
   the two must split runs into the same classes, so the map from one
   key to the other is a function both ways.  The RNone and dpor trees
   key every run; under dpor-rf only a class's first run is counted,
   which checks that the byte key splits no formatted class.  A few
   hand-made logs, each one field away from the first, cover what no
   tree varies, such as which thread an access belongs to. *)
let test_rf_key_oracle () =
  let checker name =
    let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
    let runs = ref 0 and clashes = ref 0 in
    let agrees tbl a b =
      match Hashtbl.find_opt tbl a with
      | Some b' -> b' = b
      | None ->
          Hashtbl.add tbl a b;
          true
    in
    let key outcome log =
      let text = Rfkey_format.key ~outcome log
      and bytes = Explore.rf_class_key ~outcome log in
      incr runs;
      if not (agrees fwd text bytes && agrees bwd bytes text) then
        incr clashes
    in
    let report () =
      Alcotest.(check bool) (name ^ ": runs keyed") true (!runs > 0);
      Alcotest.(check int)
        (Printf.sprintf "%s: %d runs, %d classes, keys agree" name !runs
           (Hashtbl.length fwd))
        0 !clashes;
      Hashtbl.length fwd
    in
    (key, report)
  in
  let keyed name ?(config = census_config) ?(reduce = Machine.RNone)
      ?(max_execs = 400_000) (sc : Explore.scenario) =
    let key, report = checker name in
    let keying =
      {
        sc with
        Explore.build =
          (fun m ->
            let judge = sc.Explore.build m in
            fun outcome ->
              (match outcome with
              | Machine.Pruned -> ()
              | _ -> key outcome (Machine.accesses m));
              judge outcome);
      }
    in
    ignore (Explore.dfs ~config ~reduce ~max_execs keying);
    ignore (report ())
  in
  (let a = Loc.make ~base:1 ~off:0 and b = Loc.make ~base:1 ~off:1 in
   let access ?(tid = 0) ?(loc = a) ?(mode = Mode.Rlx) ?read ?write kind =
     Access.Access
       {
         aid = 0;
         tid;
         loc;
         kind;
         mode;
         read_ts = read;
         write_ts = write;
         site = None;
       }
   in
   let w1 = access ~write:1 Access.Store and w2 = access ~write:2 Access.Store in
   let logs =
     [
       [ w1; w2 ];
       [ w1; access ~tid:1 ~write:2 Access.Store ];
       [ access ~tid:(-1) ~write:1 Access.Store; w2 ];
       [ w2; w1 ];
       [ w1; access ~mode:Mode.Rel ~write:2 Access.Store ];
       [ w1; access ~loc:b ~write:2 Access.Store ];
       [ w1; Access.Fence { aid = 0; tid = 0; fence = Mode.F_acq; site = None }; w2 ];
       [ w1; Access.Fence { aid = 0; tid = 0; fence = Mode.F_sc; site = None }; w2 ];
       [ w1; access ~read:1 Access.Load ];
       [ w1; access ~read:1 ~write:2 Access.Update ];
       [ w1; access ~read:1 Access.Update ];
     ]
   in
   let key, report = checker "hand-made logs" in
   List.iter (key (Machine.Finished [||])) logs;
   key (Machine.Finished [| Value.Int 1 |]) (List.hd logs);
   Alcotest.(check int) "hand-made logs: every log its own class"
     (List.length logs + 1) (report ()));
  List.iter
    (fun (name, mk) -> keyed name (mk ()).Litmus.scenario)
    (rf_census_litmus ());
  keyed "2+2W gap"
    ~config:{ census_config with Machine.policy = `Gap }
    (Litmus.two_two_w ()).Litmus.scenario;
  keyed "2+2W append" (Litmus.two_two_w ()).Litmus.scenario;
  let entry key =
    match Specreg.find key with
    | Some e -> e
    | None -> Alcotest.failf "no registered structure named %s" key
  in
  keyed "ms scenario 1" ~max_execs:20_000
    ((List.nth (entry "ms").Libspec.scenarios 1) ());
  List.iter
    (fun key ->
      let e = entry key in
      List.iter
        (fun (c : Compass_sim.Mgc.client) ->
          List.iter
            (fun (tag, reduce) ->
              keyed
                (Printf.sprintf "%s mgc %s %s" key c.Compass_sim.Mgc.id tag)
                ~reduce
                (Compass_sim.Mgc.scenario e
                   ~judge:(fun _ _ -> Explore.Pass)
                   c))
            [ ("dpor-rf", Machine.RDporRf); ("dpor", Machine.RDpor) ])
        (Compass_sim.Mgc.generate ~depth:1 ()))
    [ "ms"; "lock-queue"; "treiber"; "hw" ]

(* dpor-rf must keep every litmus verdict of plain dpor while never
   counting more executions. *)
let test_rf_litmus_verdicts () =
  List.iter
    (fun mk ->
      let ok_dpor, r_dpor, _ = Litmus.verdict ~reduce:Machine.RDpor (mk ()) in
      let ok_rf, r_rf, _ = Litmus.verdict ~reduce:Machine.RDporRf (mk ()) in
      let name = r_rf.Explore.name in
      Alcotest.(check bool) (name ^ ": dpor-rf verdict") ok_dpor ok_rf;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor-rf %d <= dpor %d executions" name
           r_rf.Explore.executions r_dpor.Explore.executions)
        true
        (r_rf.Explore.executions <= r_dpor.Explore.executions))
    (List.map (fun t () -> t) (Litmus.all ()))

(* Client scenarios and every registry smoke workload: verdicts and
   distinct violation sets agree with plain dpor; the rf pass only ever
   removes counted duplicates. *)
let test_rf_scenario_differential () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let dpor = Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ()) in
      let rf = Explore.dfs ~reduce:Machine.RDporRf ~max_execs (mk ()) in
      check_equiv ~name:(name ^ " dpor-rf vs dpor") dpor rf;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor-rf %d <= dpor %d executions" name
           rf.Explore.executions dpor.Explore.executions)
        true
        (rf.Explore.executions <= dpor.Explore.executions))
    (scenarios ())

let test_rf_registry_smoke () =
  List.iter
    (fun (e : Libspec.entry) ->
      let dpor =
        Explore.dfs ~max_execs:8_000 ~reduce:Machine.RDpor (e.Libspec.smoke ())
      in
      let rf =
        Explore.dfs ~max_execs:8_000 ~reduce:Machine.RDporRf
          (e.Libspec.smoke ())
      in
      Alcotest.(check bool)
        (e.Libspec.key ^ ": dpor-rf smoke verdict")
        (dpor.Explore.violations <> [])
        (rf.Explore.violations <> []);
      Alcotest.(check (list string))
        (e.Libspec.key ^ ": dpor-rf distinct violations")
        (distinct_msgs dpor) (distinct_msgs rf);
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor-rf %d <= dpor %d executions" e.Libspec.key
           rf.Explore.executions dpor.Explore.executions)
        true
        (rf.Explore.executions <= dpor.Explore.executions))
    (Specreg.all ())

(* -- a weakened ms-queue: the complete searches find its fault ---------------

   With [msqueue.enq.next_load] weakened to relaxed, an enqueuer's load
   of [next] can read poison where it expects a pointer.  dpor, searched
   to completion, must find that fault on the ms registry workload at
   every job count and with or without incremental exploration.  dpor-rf completes on this mutant without finding it,
   because it skips write->read race reversals; it is left unasserted
   here, so that neither the miss nor its eventual fix is written into
   this test. *)
let test_weak_next_load_found () =
  let overrides =
    match Override.of_specs [ "msqueue.enq.next_load=rlx" ] with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let config = { Machine.default_config with Machine.overrides } in
  let sc () =
    match Specreg.find "ms" with
    | Some e -> (List.nth e.Libspec.scenarios 1) ()
    | None -> Alcotest.fail "no registered structure named ms"
  in
  let finds name (r : Explore.report) =
    Alcotest.(check bool) (name ^ ": complete") true r.Explore.complete;
    Alcotest.(check bool) (name ^ ": poisoned read found") true
      (List.mem "fault: program error: Value.to_loc_exn: POISON"
         (distinct_msgs r))
  in
  List.iter
    (fun (jobs, incremental) ->
      finds
        (Printf.sprintf "dpor jobs %d incremental %b" jobs incremental)
        (Explore.dfs ~config ~jobs ~incremental ~reduce:Machine.RDpor
           ~max_execs:400_000 (sc ())))
    [ (1, true); (1, false); (2, true); (2, false) ]

(* -- hand-computed optimum: three threads, one write race --------------------- *)

(* t0 and t1 write the same location (dependent), t2 writes another
   (independent of both); no data nondeterminism under the Append
   policy.  6 interleavings, but only the t0/t1 order matters: exactly 2
   Mazurkiewicz traces.  An optimal DPOR explores 2 executions and kills
   none. *)
let write_race_scenario () =
  {
    Explore.name = "write-race-3t";
    build =
      (fun m ->
        let a = Machine.alloc m ~name:"a" ~init:(vi 0) 1 in
        let b = Machine.alloc m ~name:"b" ~init:(vi 0) 1 in
        let wr loc v =
          let* () = Prog.store loc (vi v) Mode.Rel in
          Prog.return Value.Unit
        in
        Machine.spawn m [ wr a 1; wr a 2; wr b 1 ];
        function
        | Machine.Finished _ -> Explore.Pass
        | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
        | Machine.Blocked s -> Explore.Discard s
        | Machine.Bounded -> Explore.Discard "bounded"
        | Machine.Pruned -> Explore.Discard "pruned");
  }

let test_optimal_count () =
  let full = Explore.dfs (write_race_scenario ()) in
  let dpor = Explore.dfs ~reduce:Machine.RDpor (write_race_scenario ()) in
  Alcotest.(check int) "unreduced: 3! interleavings" 6 full.Explore.executions;
  Alcotest.(check bool) "unreduced complete" true full.Explore.complete;
  Alcotest.(check int) "dpor: one per trace" 2 dpor.Explore.executions;
  Alcotest.(check int) "dpor: optimal — nothing killed" 0
    dpor.Explore.dpor_pruned;
  Alcotest.(check bool) "dpor complete" true dpor.Explore.complete;
  (* The same optimum through the replay engine and the parallel driver. *)
  let replay =
    Explore.dfs ~reduce:Machine.RDpor ~incremental:false
      (write_race_scenario ())
  in
  Alcotest.(check int) "dpor replay: one per trace" 2 replay.Explore.executions;
  let par = Explore.dfs ~jobs:2 ~reduce:Machine.RDpor (write_race_scenario ()) in
  Alcotest.(check bool) "dpor jobs=2 complete" true par.Explore.complete;
  Alcotest.(check int) "dpor jobs=2 passed everything" par.Explore.executions
    par.Explore.passed

(* -- acceptance: the E1 MP-queue client ---------------------------------------

   [--reduce=dpor] must finish the MP-queue client with a complete search
   and no violation. *)
let test_acceptance_mp_queue () =
  let mk () = Mp.make Msqueue.instantiate (Mp.fresh_stats ()) in
  let dpor = Explore.dfs ~reduce:Machine.RDpor ~max_execs:400_000 (mk ()) in
  Alcotest.(check bool) "dpor completes" true dpor.Explore.complete;
  Alcotest.(check (list string)) "no violation" [] (distinct_msgs dpor)

(* -- the search shape, pinned --------------------------------------------------

   The counts of one complete DPOR search: the ms queue, 2 enqueuers x 1
   dequeuer x 1 op, under plain source-DPOR.  Any change to which runs
   DPOR makes (which races it reverses, which tasks it queues, which
   sleep sets they install) moves these, so it fails here and not only in
   a benchmark count. *)
let test_search_shape () =
  let factory =
    match Specreg.find "ms" with
    | Some { Libspec.impl = Specreg.Queue f; _ } -> f
    | _ -> Alcotest.fail "no registered queue named ms"
  in
  let r =
    Explore.dfs ~reduce:Machine.RDpor ~max_execs:max_int
      (Harness.queue_workload factory ~enqers:2 ~deqers:1 ~ops:1 ())
  in
  Alcotest.(check bool) "complete" true r.Explore.complete;
  Alcotest.(check bool) "pass" true (Explore.ok r);
  Alcotest.(check int) "executions" 9_208 r.Explore.executions;
  Alcotest.(check int) "dpor-pruned" 46 r.Explore.dpor_pruned

(* -- the dependency layer itself ---------------------------------------------- *)

(* A step log holding [steps], pushed one by one. *)
let log_of steps =
  let nt = Array.fold_left (fun m (t, _) -> max m (t + 1)) 1 steps in
  let s = Deps.create ~threads:nt in
  Array.iter (fun (t, fp) -> Deps.push s t fp) steps;
  s

let test_deps_relation () =
  let open Deps in
  let m = Machine.create () in
  let a = Machine.alloc m ~name:"a" ~init:(vi 0) 1 in
  let b = Machine.alloc m ~name:"b" ~init:(vi 0) 1 in
  Alcotest.(check bool) "local/local commute" true (independent FLocal FLocal);
  Alcotest.(check bool) "local/global: global dominates" false
    (independent FLocal FGlobal);
  Alcotest.(check bool) "reads of one location commute" true
    (independent (FRead a) (FRead a));
  Alcotest.(check bool) "write/read of one location conflict" false
    (independent (FWrite a) (FRead a));
  Alcotest.(check bool) "distinct locations commute" true
    (independent (FWrite a) (FWrite b));
  (* A 3-step log: two writes to [a] by different threads with an
     independent write to [b] between them — one direct reversible race,
     (0, 2). *)
  let s = log_of [| (0, FWrite a); (1, FWrite b); (2, FWrite a) |] in
  Alcotest.(check bool) "conflicting writes trace-ordered" true (hb s 0 2);
  Alcotest.(check bool) "disjoint write unordered" false (hb s 0 1);
  Alcotest.(check (list (pair int int))) "one direct race" [ (0, 2) ] (races s);
  Alcotest.(check (list (pair int int)))
    "races before [from] dropped" [] (races ~from:3 s);
  (* With a conflicting step between them the race is indirect: the
     reversal is reached through the adjacent reversals instead. *)
  let u = log_of [| (0, FWrite a); (1, FWrite a); (2, FWrite a) |] in
  Alcotest.(check (list (pair int int)))
    "only adjacent races are direct"
    [ (0, 1); (1, 2) ]
    (races u);
  (* Same-thread steps are program-ordered but never a race. *)
  let t = log_of [| (0, FWrite a); (0, FWrite a) |] in
  Alcotest.(check bool) "po orders same thread" true (hb t 0 1);
  Alcotest.(check (list (pair int int))) "po is not a race" [] (races t);
  (* Truncation takes a step's clock contributions back out: after
     rolling [u] back to one step, a write to [b] no longer follows the
     dropped writes to [a]. *)
  truncate u 1;
  push u 1 (FWrite b);
  Alcotest.(check int) "truncated length" 2 (n_steps u);
  Alcotest.(check bool) "restored log forgets dropped steps" false (hb u 0 1);
  Alcotest.(check (list (pair int int))) "no race after restore" [] (races u)

(* Random step logs: four threads, three locations, atomic and non-atomic
   reads and writes, local and global steps. *)
let deps_locs =
  Loc.[| make ~base:1 ~off:0; make ~base:1 ~off:1; make ~base:2 ~off:0 |]

let gen_step =
  QCheck.Gen.(
    let at f = map (fun i -> f deps_locs.(i)) (int_bound 2) in
    pair (int_bound 3)
      (frequency
         [
           (3, at (fun l -> Deps.FRead l));
           (3, at (fun l -> Deps.FWrite l));
           (1, at (fun l -> Deps.FReadNa l));
           (1, at (fun l -> Deps.FWriteNa l));
           (1, return Deps.FLocal);
           (1, return Deps.FGlobal);
         ]))

let print_step (t, fp) = Format.asprintf "%d:%a" t Deps.pp_footprint fp

(* The log [s] against the all-pairs scan of the steps it should hold:
   same length, [hb] on every pair, [races ~from] for every [from]. *)
let agrees_with_scan s steps =
  let n = Array.length steps in
  let r = Deps_scan.analyze steps in
  let hb_agrees = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Deps.hb s i j <> Deps_scan.hb r i j then hb_agrees := false
    done
  done;
  Deps.n_steps s = n && !hb_agrees
  && List.for_all
       (fun from -> Deps.races ~from s = Deps_scan.races ~from r)
       (List.init (n + 1) Fun.id)

(* The incremental step clocks against the all-pairs scan. *)
let test_deps_one_pass =
  let print steps =
    String.concat " " (Array.to_list (Array.map print_step steps))
  in
  let arb =
    QCheck.make ~print QCheck.Gen.(array_size (int_bound 40) gen_step)
  in
  QCheck.Test.make ~name:"deps: one-pass clocks == all-pairs scan" ~count:500
    arb (fun steps -> agrees_with_scan (log_of steps) steps)

(* The log under checkpoint restores: random pushes interleaved with
   truncations to random earlier lengths, then the live log against the
   scan of the steps it holds. *)
let test_deps_restore =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun st -> `Push st) gen_step);
          (1, map (fun k -> `Truncate k) nat);
        ])
  in
  let print ops =
    String.concat " "
      (List.map
         (function
           | `Push st -> print_step st | `Truncate k -> Printf.sprintf "<%d" k)
         ops)
  in
  let arb = QCheck.make ~print QCheck.Gen.(list_size (int_bound 60) gen_op) in
  QCheck.Test.make ~name:"deps: restored log == scan of its live prefix"
    ~count:500 arb (fun ops ->
      let s = Deps.create ~threads:4 in
      (* the steps the log should hold, newest first *)
      let live = ref [] in
      List.iter
        (function
          | `Push (t, fp) ->
              Deps.push s t fp;
              live := (t, fp) :: !live
          | `Truncate k ->
              let len = List.length !live in
              let n = k mod (len + 1) in
              Deps.truncate s n;
              live := List.filteri (fun i _ -> i >= len - n) !live)
        ops;
      agrees_with_scan s (Array.of_list (List.rev !live)))

let suite =
  [
    Alcotest.test_case "deps: independence, trace order, races" `Quick
      test_deps_relation;
    Helpers.qtest test_deps_one_pass;
    Helpers.qtest test_deps_restore;
    Alcotest.test_case "3-thread write race: dpor hits the optimum" `Quick
      test_optimal_count;
    Alcotest.test_case "dpor == unreduced (clients)" `Slow
      test_scenario_differential;
    Alcotest.test_case "dpor engine-independent (±inc, jobs)" `Slow
      test_engine_independence;
    Alcotest.test_case "dpor preserves litmus verdicts" `Slow
      test_litmus_differential;
    Alcotest.test_case "acceptance: mp-queue dpor completes" `Quick
      test_acceptance_mp_queue;
    Alcotest.test_case "weakened ms next_load found by dpor" `Quick
      test_weak_next_load_found;
    Alcotest.test_case "search shape: ms 2x1 under dpor, 9208 + 46 runs" `Quick
      test_search_shape;
    Alcotest.test_case "dpor-rf == exhaustive rf-class census (litmus)" `Slow
      test_rf_census;
    Alcotest.test_case "rf key: byte key splits runs as the formatted key"
      `Quick test_rf_key_oracle;
    Alcotest.test_case "dpor-rf preserves litmus verdicts" `Slow
      test_rf_litmus_verdicts;
    Alcotest.test_case "dpor-rf == dpor verdicts (clients)" `Slow
      test_rf_scenario_differential;
    Alcotest.test_case "dpor-rf == dpor verdicts (registry smoke)" `Slow
      test_rf_registry_smoke;
  ]
