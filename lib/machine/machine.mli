open Compass_rmc
open Compass_event

(** The interleaving machine.

    One machine instance executes one scenario once: a deterministic solo
    setup phase (allocation, initialisation), a concurrent phase (threads
    interleaved step by step, nondeterminism resolved by an oracle), and
    an optional finale running with the join of all thread views (the
    parent after joining its children).

    Because ORC11 forbids load-buffering ([po ∪ rf] acyclic — the model's
    defining restriction, Section 1.2), an interleaving-based operational
    semantics with stale-read choices is adequate: weak behaviours come
    from reading old messages and from view-limited message views, never
    from cycles in [po ∪ rf]. *)

type config = {
  max_steps : int;  (** per concurrent phase; exceeding yields [Bounded] *)
  policy : Memory.policy;
      (** timestamp allocation for writes; under [`Gap] a write may also
          land at a free midpoint between existing writes (2+2W needs
          this), and the oracle picks among the candidates *)
  record_trace : bool;
  record_accesses : bool;
      (** record memory accesses for the axiomatic differential check
          ({!Rc11}) *)
  overrides : Override.t;
      (** mode overrides applied by site label just before an instruction
          executes — how the synchronization audit runs weakened mutants
          of unmodified programs *)
}

val default_config : config

type thread = {
  tid : int;
  mutable prog : Value.t Prog.t;
  mutable tv : Tview.t;
  mutable finished : Value.t option;
}

type outcome =
  | Finished of Value.t array  (** all threads returned; their results *)
  | Fault of string  (** data race, uninitialised read, or program error *)
  | Blocked of string  (** deadlock on [await], or a spin loop out of fuel *)
  | Bounded  (** step budget exhausted *)
  | Pruned
      (** partial-order reduction stopped the run: the scheduled thread
          was in the sleep set the DPOR search installed, so the subtree
          is a commuted copy of one already explored.  Only produced by
          {!run} with a reduction other than [RNone]; never counted as an
          execution by the explorer. *)

val pp_outcome : Format.formatter -> outcome -> unit

type reduction =
  | RNone  (** explore every interleaving the oracle asks for *)
  | RDpor
      (** source-DPOR: the machine records the (tid, footprint) step log,
          honours driver-installed sleep sets ({!set_sleep}) and wakes
          sleepers on dependent steps; backtrack/wakeup-tree logic lives
          in {!Explore}'s DPOR search.  These installed sets are the
          only sleep sets the machine keeps. *)
  | RDporRf
      (** reads-from–aware source-DPOR: identical to [RDpor] inside the
          machine; the driver additionally skips atomic write/read race
          reversals (which can lose classes and their violations; see
          {!Dpor.create}) and deduplicates executions by reads-from
          class — one counted execution per distinct rf⊕mo graph
          reached *)

type t

val create : ?config:config -> unit -> t
val registry : t -> Registry.t
val memory : t -> Memory.t
val trace : t -> Trace.entry list

val accesses : t -> Access.t list
(** recorded memory accesses (oldest first), when [record_accesses] is on *)

val steps : t -> int
val new_graph : t -> name:string -> Graph.t

val solo : ?tid:int -> t -> Value.t Prog.t -> Value.t
(** run a program to completion deterministically on a pseudo-thread
    sharing the setup view; for setup (before {!spawn}) and finale (after
    {!run}).
    @raise Failure on divergence or a blocked await *)

val alloc : t -> ?init:Value.t -> name:string -> int -> Loc.t
(** convenience: allocate during setup *)

val spawn : t -> Value.t Prog.t list -> unit
(** install the concurrent threads, each starting from the setup view *)

val spawned_progs : t -> Value.t Prog.t list
(** the thread programs as handed to {!spawn} (thread [i]'s tid is [i]),
    before any execution consumed them — how the static analyzer
    ({!Compass_static}) gets at a built scenario's program terms *)

val thread_view : t -> int -> Tview.t

val prime : t -> unit
(** initialise the concurrent-phase step deadline and sleep set without
    running — what {!run}[ ~resume:false] does on entry.  The incremental
    explorer primes once after build, takes the root {!snapshot}, and then
    always runs with [~resume:true]. *)

val run :
  ?reduction:reduction ->
  ?resume:bool ->
  ?on_step:(unit -> unit) ->
  ?on_sched:(unit -> unit) ->
  t ->
  Oracle.t ->
  outcome
(** interleave the spawned threads to completion (or fault / block /
    budget).  With [~reduction:RDpor] (or [RDporRf]) the scheduler
    honours the sleep set the DPOR search installed ({!set_sleep}): a sleeper
    wakes when a step dependent on its pending step is taken, and the
    run stops with {!Pruned} as soon as the decision script schedules a
    sleeping thread — i.e. as soon as the run would only commute
    independent steps of an already-explored subtree.  Two pending steps
    are independent when they touch different locations or are both
    reads (and neither is an allocation or SC fence); see DESIGN.md,
    "Parallel exploration & reduction".  Every concurrent-phase step is
    then logged ({!dpor_steps}) for the dependency analysis.

    [resume] (default off) continues a concurrent phase from a state
    installed by {!restore}: the step deadline and sleep set of the
    checkpointed phase are kept instead of being re-initialised, so the
    resumed run bounds and prunes exactly like a from-the-root replay of
    the same decision script.  [on_step] is called after every completed
    machine step; [on_sched] is called at the settled step boundary just
    before a scheduling choice with more than one alternative is
    consumed.  Both are the incremental explorer's checkpoint hooks. *)

(** {1 DPOR driver hooks}

    Used by the {!Explore} source-DPOR driver; state observed or
    installed at settled step boundaries (inside an oracle pick or an
    [on_sched] callback). *)

val dpor_steps : t -> Deps.steps
(** the step log of every concurrent-phase step taken along the current
    path, oldest first, with its clocks — only maintained under [RDpor].
    This is the machine's live log, not a copy: valid until the next
    {!restore} (or {!run} without [~resume]), which truncates it in
    place. *)

val dpor_depth : t -> int
(** [Deps.n_steps (dpor_steps m)]; O(1) *)

val get_sleep : t -> (int * Deps.footprint) list
val set_sleep : t -> (int * Deps.footprint) list -> unit

val pending_footprint : t -> int -> Deps.footprint
(** footprint of the next operation of the thread with this tid *)

type snapshot
(** a value-copy of all machine state (threads, memory, graphs, views,
    sleep set, the DPOR step log's length), sharing persistent substructure:
    O(#locations + #graphs + #threads) pointers.  Valid to take between
    machine steps. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** roll the machine — including its memory, registry and thread records,
    all mutated in place so handles captured at build time stay valid —
    back to [snapshot].  Follow with {!run}[ ~resume:true] to re-explore
    from that point under a different decision suffix.  The histories
    and the DPOR step log are rolled back by truncation and undo, so the
    snapshot must have been taken along the current execution, as the
    incremental explorer's checkpoints are. *)

val join_views : t -> unit
(** join all thread views into the setup view (parent joins children) *)

val finale : t -> Value.t Prog.t -> Value.t
(** {!join_views} then {!solo} — e.g. to read results non-atomically
    without racing *)
