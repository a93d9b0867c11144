(** Exploration drivers: stateless model checking.

    Executions replay from decision scripts — typed {!Decision} traces
    carrying the choice taken, the branching factor, and (for reads) the
    reads-from provenance.  One DFS driver, {!dfs}, enumerates the
    decision tree exhaustively: it splits the tree into disjoint tasks,
    run depth-first from a work-stealing deque per domain ([~jobs]), and
    [~reduce] selects a partial-order reduction — source-DPOR with
    wakeup sequences ({!Dpor}), or reads-from–aware source-DPOR
    ([RDporRf]: one counted execution per distinct rf⊕mo class).  One seeded sampler,
    {!sample}, runs random executions for {!random} and the fuzzer.
    Where the paper {e proves} a property of all executions, we
    {e enumerate} them (up to the configured bounds) and check it on
    each. *)

type verdict =
  | Pass
  | Violation of string
  | Discard of string
      (** blocked / bounded / irrelevant execution — counted separately *)

type scenario = {
  name : string;
  build : Machine.t -> (Machine.outcome -> verdict);
      (** runs once per execution on a fresh machine: allocate, spawn
          threads, return the judge.  Shared statistics live in closures
          created before the scenario.  Under [dfs ~jobs] and
          [random ~jobs] the closure runs on several domains
          concurrently: the machine is domain-local, and
          the report fields are merged from domain-local tallies, but any
          counters the scenario itself mutates are updated racily —
          treat them as approximate when [jobs > 1]. *)
}

type failure = { message : string; trace : Decision.trace }

val failure_script : failure -> int array
(** the failure's decision vector — [Decision.choices] of its trace *)

type report = {
  name : string;
  executions : int;
  distinct : int;
      (** distinct decision vectors among the executions — equals
          [executions] under DFS (which enumerates); under random sampling
          the gap is the sampling redundancy *)
  passed : int;
  discarded : int;
  bounded : int;
  blocked : int;
  pruned : int;
      (** always 0: every pruned run is a DPOR one, booked in
          [dpor_pruned].  Left out of {!pp_report} and {!report_to_json};
          the field stays only for readers of the record. *)
  dpor_pruned : int;
      (** executions killed as redundant under [~reduce:RDpor] — sleeping
          threads scheduled by a stale branch.  An optimal DPOR search
          reports 0; nonzero counts measure how far the source-set
          approximation is from optimality on this scenario. *)
  rf_pruned : int;
      (** completed runs discarded under [~reduce:RDporRf] because their
          reads-from class ({!rf_class_key}) was already counted.  Like
          [dpor_pruned], never counted in [executions] and never judged —
          on an exhaustive search [executions] equals the number of
          distinct rf⊕mo classes. *)
  violations : failure list;  (** first few, oldest first *)
  complete : bool;  (** DFS exhausted the tree within the budget *)
}

val pp_report : Format.formatter -> report -> unit

val ok : report -> bool
(** no violations *)

val report_to_json : report -> Compass_util.Jsonout.t
(** the report as a JSON object, for [--json] flags and CI artifacts.
    Kept violations carry their typed ["trace"] (with per-decision kind
    and rf provenance). *)

(** The result of one {e clamped} external replay: what the CLI, the
    fuzzer's confirmation pass, the shrinker and the witness detail
    recovery use. *)
type replayed = {
  r_machine : Machine.t;
  r_outcome : Machine.outcome;
  r_verdict : verdict;
  r_trace : Decision.trace;
      (** the typed decision log of what actually ran — a valid strict
          script, with kinds, sites and rf provenance filled in *)
  r_clamped : int;  (** out-of-range choices clamped during the replay *)
}

val replay : config:Machine.config -> scenario -> Decision.trace -> replayed
(** re-run one script on a fresh machine under [config]; the machine
    records its step trace ({!Machine.trace}) only when
    [config.record_trace] asks, as counterexample display does.
    Uniformly {e clamped}: scripts crossing a tool boundary (saved
    corpora, witness files, hand-edited CLI input) may be stale, so
    out-of-range choices take the last alternative and are counted in
    [r_clamped] instead of raising. *)

val rf_class_key : outcome:Machine.outcome -> Access.t list -> string
(** canonical key of an execution's reads-from class: the outcome tag
    plus, per thread in program order, each access's kind/location/mode
    and the {e mo ranks} of the timestamps it read and wrote (ranks, not
    raw timestamps, so the key is placement-independent under the [`Gap]
    policy), and each fence.  The key is an injective byte encoding of
    that tuple (one-byte tags, self-delimiting varint integers), not
    text, so two interleavings still get equal keys iff they realise the
    same execution graph (same per-thread accesses, rf edges and mo
    order).  Requires the access log ([record_accesses]). *)

val dfs :
  ?jobs:int ->
  ?max_execs:int ->
  ?reduce:Machine.reduction ->
  ?incremental:bool ->
  ?until_violation:bool ->
  ?config:Machine.config ->
  scenario ->
  report
(** exhaustive DFS of the decision tree, the one exploration driver.

    The tree is split into disjoint tasks: a decision prefix whose
    positions before a lock are frozen, or under DPOR a {!Dpor} task.  Running
    a task yields one execution and the child tasks that partition the
    rest of its subtree.  Each of the [jobs] workers (default 1, each on
    its own domain) owns a Chase-Lev deque ({!Wsdeque}) and pushes a
    run's children shallow-to-deep, so its own LIFO pop continues with
    the deepest divergence and idle workers steal the shallowest — the
    largest — pending subtree.  At [jobs = 1] the search is depth-first
    and fully deterministic.

    [reduce] selects a partial-order reduction (default
    {!Machine.RNone}): [RDpor] switches to source-DPOR with wakeup
    sequences ({!Dpor}), which explores near one execution per
    Mazurkiewicz trace with the verdicts of the unreduced search, never
    losing a violation up to graph isomorphism, and counts its few
    redundant kills — runs that schedule a thread in a sleep set the
    search installed — in {!report.dpor_pruned}; [RDporRf] stacks the
    reads-from reduction on top — atomic write/read race reversals are not queued and completed
    runs are deduplicated by {!rf_class_key}, so [executions] counts the
    distinct rf⊕mo classes the search reaches.  It is {e not}
    verdict-preserving: a reversal is also what lets the reader's later
    steps race the writer's later steps, which no read choice
    enumerates, so it can miss classes and the violations in them (with
    [msqueue.enq.next_load] weakened to relaxed, the ms workload's fault
    that [RDpor] and the unreduced search find; see [test_dpor.ml]).

    Per-worker tallies are merged into one report and kept violations are
    re-sorted into script order.  Without DPOR, a complete search
    reports the same fields at every job count, and the kept violations
    are the lexicographically first scripts, so they agree too whenever
    at most 16 violations exist.  Under DPOR, workers share the
    {!Dpor} nodes, so at [jobs > 1] the execution {e count} may differ
    run to run (racing workers can both explore a branch the other would
    have put to sleep), while verdicts, violation sets and completeness
    do not; under [RDporRf] the shared rf-class table makes the counted
    executions — the distinct classes — schedule-independent again on a
    complete search.

    [max_execs] bounds the executions (default 100k); pruned and
    rf-deduplicated runs do not count.  A search cut short by the budget
    reports [complete = false] and exactly [max_execs] executions, at
    every job count and under every reduction; which subset of the tree
    it covers depends on [jobs].

    [incremental] (default on) explores with the checkpoint/restore
    engine: one machine per worker built once, a stack of snapshots
    keyed by decision depth (one per decision), and only the decision
    suffix past the deepest valid checkpoint re-executed per run —
    instead of replaying every execution from the root.  Reports are
    field-for-field identical either way.  No subcommand sets it: the
    replay path, [~incremental:false], is the tests' differential
    oracle, [bench --explore]'s sequential rows run it, and the
    benchmark suite passes [Sim.options.incremental] through.

    [until_violation] (default off) stops the search at the first kept
    violation — what the mode-necessity audit uses to witness a broken
    mutant without paying for the rest of the tree.  A search cut short
    this way reports [complete = false]. *)

(** {1 Seeded sampling} *)

(** What a sampling run does per execution beyond judging it. *)
type 'w sampler = {
  worker : unit -> 'w;  (** a worker's fresh state, built on its domain *)
  oracle : 'w -> int -> Oracle.t;  (** one execution's, from its seed *)
  observe : 'w -> int -> Access.t list -> Decision.trace -> verdict -> unit;
      (** after each judged execution: its index, access log (when
          recorded) and decisions *)
}

val sample :
  ?jobs:int ->
  ?until_violation:bool ->
  ?config:Machine.config ->
  execs:int ->
  seed:int ->
  'w sampler ->
  (unit -> scenario) ->
  report * 'w list
(** the one loop that runs seeded executions, behind {!random} and the
    fuzzer.  Execution [i < execs] runs on a fresh machine under the
    sampler's oracle for seed {!Rng.derive}[ seed i].  Worker [w] of
    [jobs] (default 1, each on its own domain with its own scenario from
    the thunk) runs the indices congruent to [w] in increasing order.
    The report ([distinct = executions], [complete = false]) merges the
    workers' tallies and keeps the lowest-indexed violations in index
    order, so it is the same at every job count; the worker states come
    back in worker order.  [until_violation] (default off) stops each
    worker at its own first violation: still deterministic, but which
    executions run then depends on [jobs]. *)

val random :
  ?jobs:int -> ?execs:int -> ?seed:int -> ?config:Machine.config -> scenario -> report
(** [execs] (default 1,000) uniformly sampled executions from [seed]
    (default 0): {!sample} with {!Oracle.random}, whose report counts
    distinct decision vectors in [distinct] — the redundancy a sample
    pays and DFS does not. *)
