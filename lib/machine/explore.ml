(* Exploration drivers: stateless model checking.

   Executions are replayed from decision scripts — typed {!Decision}
   traces whose entries carry the choice taken, the branching factor, and
   (for reads) reads-from provenance.  The DFS driver enumerates the
   decision tree exhaustively.  The subtrees below distinct decision
   prefixes are disjoint, so each run splits the rest of its subtree
   into tasks; one work-stealing loop runs them depth-first on one or
   more OCaml 5 domains, with or without a partial-order reduction.  The
   random driver samples seeded executions.  Where the paper *proves* a
   property of all executions, we *enumerate* them (up to the configured
   bounds) and check it on each. *)

type verdict =
  | Pass
  | Violation of string
  | Discard of string
      (** blocked / bounded / irrelevant execution: not counted as pass or
          fail (e.g. a spin loop ran out of fuel) *)

(* A scenario builds its memory, graphs, and threads on a fresh machine and
   returns the judge that decides the verdict of the finished execution.
   [build] runs once per execution; shared statistics live in closures
   created before the scenario. *)
type scenario = {
  name : string;
  build : Machine.t -> (Machine.outcome -> verdict);
}

type failure = { message : string; trace : Decision.trace }

let failure_script f = Decision.choices f.trace

type report = {
  name : string;
  executions : int;
  distinct : int;
      (** distinct decision vectors among the executions.  DFS enumerates,
          so there it equals [executions]; random sampling revisits
          decision vectors, and the gap is the sampling redundancy. *)
  passed : int;
  discarded : int;
  bounded : int;
  blocked : int;
  pruned : int;  (** subtrees skipped by sleep-set reduction *)
  dpor_pruned : int;
      (** executions cut short by DPOR sleep sets (a queued branch turned
          out to be covered); like [pruned], never counted in
          [executions] *)
  rf_pruned : int;
      (** runs discarded by the reads-from reduction ([RDporRf]) because
          their rf⊕mo class was already counted; like [pruned], never
          counted in [executions] *)
  violations : failure list;  (** first few, oldest first *)
  complete : bool;  (** DFS exhausted the tree within the budget *)
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d executions (%s)%s@ passed %d, discarded %d (blocked %d, bounded %d)%s, violations %d%a@]"
    r.name r.executions
    (if r.complete then "exhaustive" else "budget-limited")
    (if r.distinct < r.executions then
       Printf.sprintf ", %d distinct" r.distinct
     else "")
    r.passed r.discarded r.blocked r.bounded
    ((if r.pruned > 0 then Printf.sprintf ", pruned %d subtrees" r.pruned
      else "")
    ^ (if r.dpor_pruned > 0 then
         Printf.sprintf ", dpor-pruned %d branches" r.dpor_pruned
       else "")
    ^
    if r.rf_pruned > 0 then
      Printf.sprintf ", rf-pruned %d duplicates" r.rf_pruned
    else "")
    (List.length r.violations)
    (fun ppf vs ->
      List.iteri
        (fun i (f : failure) ->
          if i < 3 then Format.fprintf ppf "@   - %s" f.message)
        vs)
    r.violations

let ok r = r.violations = []

let report_to_json (r : report) =
  let open Compass_util in
  Jsonout.Obj
    [
      ("name", Jsonout.Str r.name);
      ("executions", Jsonout.Int r.executions);
      ("distinct", Jsonout.Int r.distinct);
      ("passed", Jsonout.Int r.passed);
      ("discarded", Jsonout.Int r.discarded);
      ("bounded", Jsonout.Int r.bounded);
      ("blocked", Jsonout.Int r.blocked);
      ("pruned", Jsonout.Int r.pruned);
      ("dpor_pruned", Jsonout.Int r.dpor_pruned);
      ("rf_pruned", Jsonout.Int r.rf_pruned);
      ("complete", Jsonout.Bool r.complete);
      ( "violations",
        Jsonout.List
          (List.map
             (fun (f : failure) ->
               Jsonout.Obj
                 [
                   ("message", Jsonout.Str f.message);
                   ("trace", Decision.trace_to_json f.trace);
                 ])
             r.violations) );
    ]

let run_one ~config scenario script =
  let m = Machine.create ~config () in
  let judge = scenario.build m in
  let oracle = Oracle.script script in
  let outcome = Machine.run m oracle in
  let verdict = judge outcome in
  (m, oracle, outcome, verdict)

(* External replay — the CLI, the fuzzer's confirmation pass, the witness
   detail recovery.  Uniformly *clamped*: scripts that cross a tool
   boundary may be stale or hand-edited, so out-of-range choices take the
   last alternative and are counted instead of raising; [r_trace] is the
   typed decision log of what actually ran (a valid strict script). *)
type replayed = {
  r_machine : Machine.t;
  r_outcome : Machine.outcome;
  r_verdict : verdict;
  r_trace : Decision.trace;
  r_clamped : int;  (** out-of-range choices clamped during the replay *)
}

let replay ~config scenario script =
  let config = { config with Machine.record_trace = true } in
  let m = Machine.create ~config () in
  let judge = scenario.build m in
  let oracle = Oracle.script_clamped script in
  let outcome = Machine.run m oracle in
  {
    r_machine = m;
    r_outcome = outcome;
    r_verdict = judge outcome;
    r_trace = Oracle.trace oracle;
    r_clamped = Oracle.clamp_count oracle;
  }

(* Reports keep only the first few counterexamples: enough to show, cheap
   to carry. *)
let max_violations = 16

type stats = {
  mutable execs : int;
  mutable passed : int;
  mutable discarded : int;
  mutable bounded : int;
  mutable blocked : int;
  mutable pruned : int;
  mutable dpor_pruned : int;
  mutable rf_pruned : int;
  mutable viol_count : int;  (** kept violations (avoids O(n) list length) *)
  mutable violations : failure list;  (** newest first *)
}

let fresh_stats () =
  {
    execs = 0;
    passed = 0;
    discarded = 0;
    bounded = 0;
    blocked = 0;
    pruned = 0;
    dpor_pruned = 0;
    rf_pruned = 0;
    viol_count = 0;
    violations = [];
  }

let account st (outcome : Machine.outcome) verdict trace =
  st.execs <- st.execs + 1;
  (match outcome with
  | Machine.Bounded -> st.bounded <- st.bounded + 1
  | Machine.Blocked _ -> st.blocked <- st.blocked + 1
  | _ -> ());
  match verdict with
  | Pass -> st.passed <- st.passed + 1
  | Discard _ -> st.discarded <- st.discarded + 1
  | Violation message ->
      if st.viol_count < max_violations then begin
        st.viol_count <- st.viol_count + 1;
        st.violations <- { message; trace } :: st.violations
      end

(* [distinct]: only the random driver counts fingerprints; DFS enumerates
   distinct scripts by construction, so it defaults to the execution
   count. *)
let to_report ?distinct ~name ~complete st =
  {
    name;
    executions = st.execs;
    distinct = (match distinct with Some d -> d | None -> st.execs);
    passed = st.passed;
    discarded = st.discarded;
    bounded = st.bounded;
    blocked = st.blocked;
    pruned = st.pruned;
    dpor_pruned = st.dpor_pruned;
    rf_pruned = st.rf_pruned;
    violations = List.rev st.violations;
    complete;
  }

(* -- reads-from classes ------------------------------------------------------

   The canonical key of an execution's ORC11 execution graph, built from
   the recorded access log: the outcome tag plus, per thread in program
   order, each access's kind/location/mode and the *mo ranks* of the
   timestamps it read and wrote.  Two interleavings with the same
   per-thread access sequences, the same rf edges and the same mo order
   produce the same key no matter how the scheduler interleaved them —
   timestamps are canonicalised to their rank among the location's
   observed timestamps, so the key is mo-based even under the [`Gap]
   placement policy where raw timestamp values are placement-dependent. *)

let rf_class_key ~(outcome : Machine.outcome) accesses =
  let module Loc = Compass_rmc.Loc in
  let module Mode = Compass_rmc.Mode in
  (* timestamps observed per location, then ranked *)
  let per_loc : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let note loc ts =
    let k = Loc.key loc in
    match Hashtbl.find_opt per_loc k with
    | Some l -> l := ts :: !l
    | None -> Hashtbl.add per_loc k (ref [ ts ])
  in
  List.iter
    (function
      | Access.Access r ->
          (match r.read_ts with Some ts -> note r.loc ts | None -> ());
          (match r.write_ts with Some ts -> note r.loc ts | None -> ())
      | Access.Fence _ -> ())
    accesses;
  let rank : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k tss ->
      List.iteri
        (fun i ts -> Hashtbl.replace rank (k, ts) i)
        (List.sort_uniq compare !tss))
    per_loc;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Format.asprintf "%a" Machine.pp_outcome outcome);
  let tids =
    List.sort_uniq compare (List.map Access.tid accesses)
  in
  List.iter
    (fun tid ->
      Buffer.add_string buf (Printf.sprintf "|T%d:" tid);
      List.iter
        (fun a ->
          if Access.tid a = tid then
            match a with
            | Access.Access r ->
                let k = Loc.key r.loc in
                Buffer.add_string buf
                  (Format.asprintf "%c%d%a"
                     (match r.kind with
                     | Access.Load -> 'L'
                     | Access.Store -> 'S'
                     | Access.Update -> 'U')
                     k Mode.pp_access r.mode);
                (match r.read_ts with
                | Some ts ->
                    Buffer.add_string buf
                      (Printf.sprintf "r%d" (Hashtbl.find rank (k, ts)))
                | None -> ());
                (match r.write_ts with
                | Some ts ->
                    Buffer.add_string buf
                      (Printf.sprintf "w%d" (Hashtbl.find rank (k, ts)))
                | None -> ());
                Buffer.add_char buf ';'
            | Access.Fence f ->
                Buffer.add_string buf
                  (Format.asprintf "F%a;" Mode.pp_fence f.fence))
        accesses)
    tids;
  Buffer.contents buf

(* -- running one execution ---------------------------------------------------

   [run_tree] executes [script] on a fresh machine, accounts the result
   into [st] (unless the run was pruned) and returns the logged decision
   trace, from which the driver derives the run's child tasks.

   [mk_oracle] builds the oracle for one run from the machine, the resume
   depth/log (0/[] when replaying from the root) and the script; the
   default is plain scripted replay, DPOR tasks substitute their
   observing/steering oracle.  [classify] inspects a completed run before
   it is accounted: returning [false] books it as [rf_pruned] instead of
   an execution — the reads-from deduplication hook. *)

let default_mk_oracle _m ~pos ~log script = Oracle.resume_script ~pos ~log script

let default_classify _m _outcome = true

let account_run ~reduction ~classify st m outcome judge tr =
  match outcome with
  | Machine.Pruned -> (
      match (reduction : Machine.reduction) with
      | Machine.RDpor | Machine.RDporRf -> st.dpor_pruned <- st.dpor_pruned + 1
      | _ -> st.pruned <- st.pruned + 1)
  | _ ->
      if classify m outcome then account st outcome (judge outcome) tr
      else st.rf_pruned <- st.rf_pruned + 1

let run_tree ~config ~reduction ~mk_oracle ~classify scenario st script =
  let m = Machine.create ~config () in
  let judge = scenario.build m in
  let oracle = mk_oracle m ~pos:0 ~log:[] script in
  let outcome = Machine.run ~reduction m oracle in
  let tr = Oracle.trace oracle in
  account_run ~reduction ~classify st m outcome judge tr;
  tr

(* -- the incremental engine --------------------------------------------------

   Replay-from-root pays [Machine.create] + scenario build + a full replay
   of the decision prefix on every execution: O(depth) redundant work per
   leaf of the decision tree.  The incremental engine instead keeps ONE
   machine per worker and a stack of checkpoints keyed by decision depth
   along the current path.  To run the next script, it finds the deepest
   checkpoint whose depth is within the common prefix of the new script
   and the previous run's decisions, restores it (O(#locations + #graphs)
   pointer copies — the underlying maps are persistent), and re-executes
   only the decision suffix.  Since the driver runs the *deepest* pending
   divergence next, the suffix is usually a handful of steps.

   A checkpoint is taken every [stride] decisions (at machine-step
   boundaries); on backtrack at most [stride] decisions' worth of steps
   are replayed from the restored state.  The scenario is built exactly
   once per engine: thread programs are free-monad values and judges read
   machine state that [restore] rolls back in place, so per-execution
   behaviour — and hence every report field — matches replay-from-root
   decision for decision (the differential suite in test/test_explore.ml
   asserts this). *)

let default_stride = 1

type checkpoint = {
  c_depth : int;  (** oracle decisions consumed when the snapshot was taken *)
  c_snap : Machine.snapshot;
  c_log : Decision.t list;  (** oracle raw log at the checkpoint *)
}

type engine = {
  e_machine : Machine.t;
  e_judge : Machine.outcome -> verdict;
  e_stride : int;
  mutable e_stack : checkpoint list;
      (** deepest first; the bottom element is the post-build root and is
          never popped.  Invariant: every checkpoint is a state along the
          previous run's path (prefix depths only). *)
  mutable e_prev : Decision.trace;  (** the previous run's decision trace *)
}

let engine ?(stride = default_stride) ~config scenario =
  if stride < 1 then invalid_arg "Explore.engine: stride < 1";
  let m = Machine.create ~config () in
  let judge = scenario.build m in
  (* Prime before the root snapshot so every run — including one restored
     from the root — resumes with the deadline and sleep set a
     from-the-root replay would compute. *)
  Machine.prime m;
  let root = { c_depth = 0; c_snap = Machine.snapshot m; c_log = [] } in
  {
    e_machine = m;
    e_judge = judge;
    e_stride = stride;
    e_stack = [ root ];
    e_prev = [||];
  }

let engine_run eng ~reduction ~mk_oracle ~classify st script =
  (* Divergence point: the first position where [script] departs from the
     previous run's decisions.  Checkpoints strictly deeper than it belong
     to a different path. *)
  let diverge =
    let n = min (Array.length script) (Array.length eng.e_prev) in
    let rec go i =
      if
        i < n
        && script.(i).Decision.choice = eng.e_prev.(i).Decision.choice
      then go (i + 1)
      else i
    in
    go 0
  in
  let rec pop = function
    | ck :: (_ :: _ as rest) when ck.c_depth > diverge -> pop rest
    | stack -> stack
  in
  eng.e_stack <- pop eng.e_stack;
  let ck = List.hd eng.e_stack in
  let m = eng.e_machine in
  Machine.restore m ck.c_snap;
  let oracle = mk_oracle m ~pos:ck.c_depth ~log:ck.c_log script in
  let top = ref ck.c_depth in
  (* Machine step at which the head checkpoint's snapshot was taken — to
     skip no-op slides when no forced step ran since. *)
  let top_step = ref (Machine.steps m) in
  let on_step () =
    let d = Oracle.position oracle in
    if d >= !top + eng.e_stride then begin
      top := d;
      top_step := Machine.steps m;
      eng.e_stack <-
        { c_depth = d; c_snap = Machine.snapshot m; c_log = Oracle.raw_log oracle }
        :: eng.e_stack
    end
  in
  let on_sched () =
    (* A scheduling decision is about to be consumed.  If forced steps ran
       since the head checkpoint's snapshot (arity-1 choices are not
       logged, so the depth didn't move), slide the checkpoint forward to
       this settled boundary: a restore to this depth then lands right
       before the decision instead of replaying the forced run.  Sliding
       only here — not on every forced step — takes exactly one snapshot
       per decision, and none for the forced run trailing the last
       decision (such a snapshot could never be restored: any future
       divergence point is at most the last decision's depth). *)
    let d = Oracle.position oracle in
    match eng.e_stack with
    | ck :: rest when ck.c_depth = d && Machine.steps m > !top_step ->
        top_step := Machine.steps m;
        eng.e_stack <- { ck with c_snap = Machine.snapshot m } :: rest
    | _ -> ()
  in
  let outcome = Machine.run ~reduction ~resume:true ~on_step ~on_sched m oracle in
  let tr = Oracle.trace oracle in
  eng.e_prev <- tr;
  account_run ~reduction ~classify st m outcome eng.e_judge tr;
  tr

(* A worker's runner: one closure per worker, so each owns at most one
   machine for its whole lifetime instead of allocating a machine, hash
   tables and scenario closures per execution. *)
let make_runner ?(mk_oracle = default_mk_oracle) ?(classify = default_classify)
    ~incremental ~stride ~config ~reduction scenario =
  if incremental then begin
    let eng = engine ~stride ~config scenario in
    fun st script -> engine_run eng ~reduction ~mk_oracle ~classify st script
  end
  else fun st script ->
    run_tree ~config ~reduction ~mk_oracle ~classify scenario st script

let merge_stats into from =
  into.execs <- into.execs + from.execs;
  into.passed <- into.passed + from.passed;
  into.discarded <- into.discarded + from.discarded;
  into.bounded <- into.bounded + from.bounded;
  into.blocked <- into.blocked + from.blocked;
  into.pruned <- into.pruned + from.pruned;
  into.dpor_pruned <- into.dpor_pruned + from.dpor_pruned;
  into.rf_pruned <- into.rf_pruned + from.rf_pruned;
  into.viol_count <- into.viol_count + from.viol_count;
  into.violations <- from.violations @ into.violations

(* Deterministic violation order across worker schedules: sort the merged
   failures by decision script (DFS order is lexicographic on scripts). *)
let compare_failure (a : failure) (b : failure) =
  let la = Array.length a.trace and lb = Array.length b.trace in
  let rec go i =
    if i >= la || i >= lb then Int.compare la lb
    else
      match
        Int.compare a.trace.(i).Decision.choice b.trace.(i).Decision.choice
      with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

(* -- the driver: work-stealing DFS -------------------------------------------

   The decision tree is partitioned into *tasks*: running a task yields
   one execution plus the child tasks that partition the rest of its
   subtree.  Each of the [jobs] workers (one per domain) owns a Chase-Lev
   deque ({!Wsdeque}, the native analogue of the modelled
   lib/dstruct/chaselev.ml) and pushes a run's children shallow-to-deep,
   so its own LIFO pop continues with the *deepest* divergence — at
   [jobs = 1] a plain depth-first search — while idle workers steal the
   *shallowest* pending task, i.e. the largest unexplored subtree, which
   keeps steals rare.

   [make_exec st] builds a worker's task runner on the worker's domain:
   the machine, incremental engine and stats are domain-local, as the
   per-run isolation audit of [Machine.create] guarantees, so workers
   share only the deques, the pending count, the execution budget and
   the stop flag.  Termination is an atomic count of tasks created but
   not yet finished; the search is complete when it drops to zero
   without [until_violation] stopping it.

   The budget is claimed in batches: one [fetch_and_add] amortised over
   [budget_batch] runs instead of one per run — per-execution atomics on
   a shared counter are a cross-domain cache-line ping-pong, profiled as
   the dominant parallel cost once executions got cheap.  Pruned and
   rf-deduplicated runs are not executions and keep their slot.  A
   worker that cannot claim a slot hands its task back and stops, while
   workers still holding slots run on (stealing the handed-back work)
   until they have spent them — so a budget-limited search runs exactly
   [max_execs] executions at every job count. *)

let budget_batch = 64

let drive ~jobs ~max_execs ~until_violation ~name ~root make_exec =
  let deques = Array.init jobs (fun _ -> Wsdeque.create ()) in
  let pending = Atomic.make 1 in
  Wsdeque.push deques.(0) root;
  let spent = Atomic.make 0 in
  let budget_hit = Atomic.make false in
  (* [until_violation]: the first worker to keep a violation raises this
     flag; the others stop at their next task boundary. *)
  let stop = Atomic.make false in
  let worker k () =
    let st = fresh_stats () in
    let exec = make_exec st in
    let dq = deques.(k) in
    (* Claimed budget slots not yet spent. *)
    let local = ref 0 in
    let claim () =
      let got = Atomic.fetch_and_add spent budget_batch in
      if got >= max_execs then begin
        ignore (Atomic.fetch_and_add spent (-budget_batch));
        Atomic.set budget_hit true;
        false
      end
      else begin
        (* Keep only the slots that fit under the budget. *)
        let batch = min budget_batch (max_execs - got) in
        if batch < budget_batch then
          ignore (Atomic.fetch_and_add spent (batch - budget_batch));
        local := batch;
        true
      end
    in
    (* [false]: out of budget — the task goes back on the deque for a
       worker that still holds slots, and this one stops. *)
    let run_task t =
      if !local = 0 && not (claim ()) then begin
        Wsdeque.push dq t;
        false
      end
      else begin
        decr local;
        let execs = st.execs in
        let children = exec t in
        if st.execs = execs then incr local;
        if until_violation && st.viol_count > 0 then begin
          Atomic.set stop true;
          Atomic.decr pending
        end
        else begin
          (* The children replace this task in the count, which is
             adjusted before they become stealable so it cannot reach
             zero early. *)
          ignore (Atomic.fetch_and_add pending (List.length children - 1));
          List.iter (Wsdeque.push dq) children
        end;
        true
      end
    in
    let rec loop () =
      if Atomic.get stop || (!local = 0 && Atomic.get budget_hit) then ()
      else
        match Wsdeque.pop dq with
        | Some t -> if run_task t then loop ()
        | None ->
            if Atomic.get pending > 0 then begin
              (* Out of local work but the search isn't over: scan the
                 other deques for the shallowest stealable task. *)
              let stolen = ref None and o = ref 1 in
              while !stolen = None && !o < jobs do
                stolen := Wsdeque.steal deques.((k + !o) mod jobs);
                incr o
              done;
              match !stolen with
              | Some t -> if run_task t then loop ()
              | None ->
                  Domain.cpu_relax ();
                  loop ()
            end
    in
    loop ();
    st
  in
  let stats =
    if jobs = 1 then [ worker 0 () ]
    else
      Array.init jobs (fun k -> Domain.spawn (worker k))
      |> Array.map Domain.join |> Array.to_list
  in
  let st = fresh_stats () in
  List.iter (merge_stats st) stats;
  (* [to_report] reverses the (newest-first) list, so store the kept
     failures — the lexicographically smallest scripts — in reverse. *)
  st.violations <-
    List.sort compare_failure st.violations
    |> List.filteri (fun i _ -> i < max_violations)
    |> List.rev;
  to_report ~name
    ~complete:((not (Atomic.get stop)) && Atomic.get pending = 0)
    st

(* -- plain tasks (no reduction, sleep sets) -----------------------------------

   A task [(script, lock)] owns the subtree of executions whose decision
   vectors extend [script] with positions below [lock] frozen.  Running
   it yields one leaf trace [tr]; the rest of its subtree is exactly the
   disjoint union of the children

     (tr[0..i) ++ [bumped tr.(i)], i)   for lock <= i < |tr|, choice+1 < arity

   — child [i] covers every execution that agrees with the leaf below
   position [i] and diverges at [i].  Run deepest first, they enumerate
   the tree in lexicographic order of decision vectors.  Sleep sets need
   nothing more: replay reconstructs them from the root, so pruning is
   the same however the tree is carved. *)

let split_exec run st (script, lock) =
  let tr = run st script in
  let children = ref [] in
  for i = Array.length tr - 1 downto lock do
    if tr.(i).Decision.choice + 1 < tr.(i).Decision.arity then begin
      let child = Array.sub tr 0 (i + 1) in
      child.(i) <- Decision.bumped tr.(i);
      children := (child, i) :: !children
    end
  done;
  !children

(* -- source-DPOR tasks --------------------------------------------------------

   A {!Dpor} task replays its script prefix (re-arming the sleep sets
   recorded for its branch points), then continues with the driver's
   scheduling policy — follow the task's wakeup sequence while the
   executed steps match it, otherwise the first runnable thread that is
   not asleep; data choices default to the first alternative.  Every
   decision past the prefix is observed; after the run, {!Dpor.integrate}
   returns the untaken data alternatives and the race-reversal branches
   as child tasks.  Checkpoints restored across tasks are consistent
   because the sleep entries installed at a branch position are fixed per
   (node, branch) — two tasks sharing a script prefix install
   byte-identical sleep state along it.

   At [jobs = 1] the search is fully deterministic (and the depth-first
   order keeps the incremental engine's divergence suffixes short).  At
   [jobs > 1] race-discovery order — and hence execution counts — may
   vary between runs, but verdicts and kept-violation sets are
   schedule-independent (the differential suite asserts this).

   [rf] mode (--reduce=dpor-rf) stacks the data reduction on top:
   {!Dpor.create}[ ~rf:true] stops queueing atomic write/read race
   reversals (the read's data siblings already enumerate every rf edge a
   reversal could realise), and a shared rf-class table keyed by
   {!rf_class_key} deduplicates completed runs — a run whose class was
   already counted books as [rf_pruned], skips the judge, and keeps its
   budget slot, so [executions] counts exactly the distinct rf⊕mo
   classes.  Every run still feeds {!Dpor.integrate}: duplicates can
   still own unexplored data siblings. *)

let dpor_exec ~state ~reduction ~classify ~incremental ~stride ~config
    scenario st =
  (* Per-run driver state, rebound by [mk_oracle] before each run. *)
  let cur_task = ref Dpor.root_task in
  let cur_m = ref None in
  let obs = ref [] in
  let wake = ref [] in
  let base = ref 0 in
  let mk_oracle m ~pos ~log script =
    cur_m := Some m;
    obs := [];
    let task = !cur_task in
    wake := Dpor.wakeup task;
    base := Dpor.branch_step task + 1;
    let installs = Dpor.installs task in
    let slen = Array.length script in
    let pick ~pos ~arity ~kind =
      if pos < slen then begin
        (match List.assoc_opt pos installs with
        | Some entries -> Machine.set_sleep m (entries @ Machine.get_sleep m)
        | None -> ());
        let c = script.(pos).Decision.choice in
        if c >= arity then
          invalid_arg
            (Printf.sprintf "Explore.dpor: choice %d/%d at %d" c arity pos);
        c
      end
      else
        match kind with
        | Oracle.Data ->
            let s = Machine.dpor_depth m in
            obs :=
              Dpor.Odata { o_pos = pos; o_step = s; o_arity = arity; o_taken = 0 }
              :: !obs;
            0
        | Oracle.Sched tids ->
            let s = Machine.dpor_depth m in
            let sleep = Machine.get_sleep m in
            (* Steering: consume wakeup entries matching the steps run
               since the last sync (forced steps included); abandon the
               sequence on first divergence. *)
            (if !wake <> [] then begin
               let steps = Machine.dpor_steps m in
               let t = ref !base in
               while !wake <> [] && !t < s do
                 (match !wake with
                 | w :: rest when w = fst steps.(!t) -> wake := rest
                 | _ -> wake := []);
                 incr t
               done;
               base := s
             end);
            let n = Array.length tids in
            let index_of w =
              let rec go i =
                if i >= n then None else if tids.(i) = w then Some i else go (i + 1)
              in
              go 0
            in
            let default () =
              let rec go i =
                if i >= n then 0
                else if List.mem_assq tids.(i) sleep then go (i + 1)
                else i
              in
              go 0
            in
            let j =
              match !wake with
              | w :: rest -> (
                  match index_of w with
                  | Some i when not (List.mem_assq w sleep) ->
                      wake := rest;
                      base := s + 1;
                      i
                  | _ ->
                      wake := [];
                      default ())
              | [] -> default ()
            in
            obs :=
              Dpor.Osched
                {
                  o_pos = pos;
                  o_step = s;
                  o_tids = Array.copy tids;
                  o_fps = Array.map (Machine.pending_footprint m) tids;
                  o_sleep = sleep;
                  o_taken = j;
                }
              :: !obs;
            j
    in
    Oracle.resume_make ~sched_aware:true ~pos ~log pick
  in
  let run =
    make_runner ~mk_oracle ~classify ~incremental ~stride ~config ~reduction
      scenario
  in
  fun task ->
    cur_task := task;
    let ds = run st (Dpor.script task) in
    Dpor.integrate state task ~ds ~obs:(List.rev !obs)
      ~steps:(Machine.dpor_steps (Option.get !cur_m))

(* Exhaustive DFS over the decision tree, up to [max_execs] executions, on
   [jobs] domains.  With [until_violation] the search stops at the first
   kept violation — the mode-necessity audit only needs a witness per
   mutant, not the full census (a run cut short this way reports
   [complete = false]). *)
let dfs ?(jobs = 1) ?(max_execs = 100_000) ?(reduce = Machine.RNone)
    ?(incremental = true) ?(stride = default_stride)
    ?(until_violation = false) ?(config = Machine.default_config)
    (scenario : scenario) =
  let drive root make_exec =
    drive ~jobs:(max 1 jobs) ~max_execs ~until_violation ~name:scenario.name
      ~root make_exec
  in
  match reduce with
  | Machine.RNone | Machine.RSleep ->
      drive ([||], 0) (fun st ->
          split_exec
            (make_runner ~incremental ~stride ~config ~reduction:reduce
               scenario)
            st)
  | Machine.RDpor | Machine.RDporRf ->
      let rf = reduce = Machine.RDporRf in
      let state = Dpor.create ~rf () in
      (* rf-class dedup needs the access log; force-record it in rf mode. *)
      let config =
        if rf && not config.Machine.record_accesses then
          { config with Machine.record_accesses = true }
        else config
      in
      let classes : (string, unit) Hashtbl.t = Hashtbl.create 199 in
      let classes_lock = Mutex.create () in
      let classify m outcome =
        if not rf then true
        else begin
          let key = rf_class_key ~outcome (Machine.accesses m) in
          Mutex.lock classes_lock;
          let dup = Hashtbl.mem classes key in
          if not dup then Hashtbl.add classes key ();
          Mutex.unlock classes_lock;
          not dup
        end
      in
      drive Dpor.root_task
        (dpor_exec ~state ~reduction:reduce ~classify ~incremental ~stride
           ~config scenario)

(* Random sampling: [execs] seeded executions.  Decision vectors are
   fingerprinted so the report can say how many *distinct* executions the
   sample actually covered — the redundancy random exploration pays and
   DFS does not. *)
let random ?(execs = 1_000) ?(seed = 0) ?(config = Machine.default_config)
    scenario =
  let st = fresh_stats () in
  let seen : (int array, unit) Hashtbl.t = Hashtbl.create 199 in
  for i = 0 to execs - 1 do
    let m = Machine.create ~config () in
    let judge = scenario.build m in
    let oracle = Oracle.random ~seed:(seed + i) in
    let outcome = Machine.run m oracle in
    let verdict = judge outcome in
    let tr = Oracle.trace oracle in
    Hashtbl.replace seen (Decision.choices tr) ();
    account st outcome verdict tr
  done;
  to_report ~distinct:(Hashtbl.length seen) ~name:scenario.name ~complete:false
    st

type mode = Dfs of { max_execs : int } | Random of { execs : int; seed : int }

let run ?(config = Machine.default_config) ?(jobs = 1)
    ?(reduce = Machine.RNone) ?(incremental = true) ?(stride = default_stride)
    ?(until_violation = false) ~mode scenario =
  match mode with
  | Dfs { max_execs } ->
      dfs ~jobs ~max_execs ~reduce ~incremental ~stride ~until_violation
        ~config scenario
  | Random { execs; seed } -> random ~execs ~seed ~config scenario
