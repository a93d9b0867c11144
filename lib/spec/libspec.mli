open Compass_rmc
open Compass_event
open Compass_machine

(** First-class library specifications and the central spec registry.

    The paper's core claim is that each library gets {e one} spec object,
    arranged in a strength ladder (LATso-abs / LAThb-abs / LAThb /
    LAThist), that clients program against instead of implementations.
    This module makes that architecture literal:

    - {!t} is the common specification signature: a name, the event-graph
      consistency predicate, and (when one exists) the sequential kind
      whose abstract machine the LATabs and LAThist styles step;
    - {!transition}/{!step} expose the spec's abstract machine as an
      executable labelled transition system;
    - {!check} is the one generic style checker: its LATabs legs replay
      that machine in commit order, and its LAThist leg asks {!search},
      the one commit-point search over it, for a legal total order — as
      the forward-simulation checker ([Compass_sim.Simrel]) does;
    - the {!entry} registry binds each [lib/dstruct] structure to its
      spec, default workloads, ladder expectations and site metadata, so
      every tool resolves [--struct] through a single table. *)

(** {1 The spec-style ladder} *)

type style = So_abs | Hb_abs | Hb | Hist | Sc_abs
(** The spec-style hierarchy (paper, Sections 2.3-3.3), as checkable
    predicates on one execution's graph:

    - [So_abs]: commit-point abstract state only (Cosmo's demand);
    - [Hb]: graph consistency only (lhb/so conditions) — the LAThb style;
    - [Hb_abs]: both — LAThb-abs;
    - [Hist]: graph consistency plus a linearisable history, found by
      the commit-point search {!search} — LAThist;
    - [Sc_abs]: the SC spec of Figure 2 including the truly-empty
      condition — satisfied by no relaxed implementation (Section 2.3's
      "an RMC spec cannot be quite as strong as the SC spec"), only by
      the coarse-grained lock baselines.

    An implementation "satisfies" a style when every explored execution
    passes — the checking counterpart of the paper's per-style
    verification results (experiment E2's matrix). *)

val style_name : style -> string
val style_of_string : string -> style option
val all_styles : style list

type kind = Queue | Stack | Deque
(** the sequential kinds: which abstract machine a spec's linearisation
    steps (FIFO queue, LIFO stack, work-stealing deque) *)

(** {1 The abstract machine, executable}

    The spec's abstract state is the sequential object's contents, each
    element paired with the event id of the operation that inserted it
    (so the generated [so] edges match insertions to removals exactly). *)

type astate = (Value.t * int) list

type op_req =
  | Insert of Value.t
  | Remove  (** dequeue / pop; commits the empty event on empty state *)
  | Steal
      (** a thief's removal from the deque's front (its oldest element);
          queues and stacks have no thieves and remove as for [Remove] *)

val transition :
  kind -> astate -> id:int -> op_req -> astate * Event.typ * (int * int) list
(** one atomic abstract transition: the new state, the event to commit
    (with the fresh event id [id]) and its [so] edges *)

val op_of_typ : Event.typ -> op_req option
(** the operation request a committed event records ([None] for events
    outside the sequential-kind vocabulary: exchanges, custom events) *)

val step :
  kind -> astate -> id:int -> op:op_req -> result:Event.typ ->
  (astate * (int * int) list) option
(** the spec as a labelled transition system: [step kind st ~id ~op
    ~result] is [Some (st', so)] when performing [op] from [st] legally
    yields the event [result] (committed with id [id]) — the successor
    state and the spec's predicted insertion-to-removal [so] edges.
    [None] when the result is illegal: a queue in state [a; b] admits
    [Deq a] but not [Deq b] (FIFO), a stack admits only the most recent
    push (LIFO), and empty removals are legal only from the empty
    state. *)

val step_event :
  kind -> astate -> Event.data -> (astate * (int * int) list) option
(** {!step} with the request derived from the observed event ([None] for
    events outside the kind's vocabulary) *)

(** {1 The commit-point search}

    Is there a total order of a graph's committed events that respects
    [lhb], steps the abstract machine legally from the empty state, and
    reproduces the recorded [so] edges exactly?  That order is LAThist's
    [to] (Section 3.3, Figure 4) and a forward simulation's commit-point
    assignment.  Commit order itself need not be legal: the Herlihy-Wing
    queue commits enqueues at ticket reservation and linearises by
    reordering; offline search replaces the prophecy variables the SC
    proof needed. *)

type outcome =
  | Witness of Event.data list
      (** a witness order, earliest first: the first one a DFS trying
          candidates in commit order finds, so the commit order itself
          whenever that order is legal *)
  | Breaks_at of int
      (** no order exists; the position in [committed] of the earliest
          breaking commit point — the smallest commit-order prefix that
          no legal order covers ends there *)
  | Gave_up
      (** the budget of 200k search states ran out, or more than 62
          events participate *)

type search = {
  committed : Event.data array;
      (** the graph's events in the kind's vocabulary, in commit order;
          other events (exchanges, custom) do not participate *)
  states : int;
      (** enabled candidate steps tried, across the full search and the
          prefix scan behind [Breaks_at] *)
  outcome : outcome;
}

val search : kind -> Graph.t -> search
(** a DFS over the linear extensions of [lhb], memoised on (used set,
    abstract state) with the used set as a bitmask *)

(** {1 The common specification signature} *)

type t = {
  name : string;  (** spec name, e.g. ["queue"] *)
  kind : kind option;
      (** sequential kind for the commit-order replay and linearisation;
          [None] for specs without one (exchanger) *)
  consistent : Graph.t -> Check.violation list;
      (** the event-graph consistency predicate (the paper's
          XxxConsistent) — the LAThb leg *)
}

val queue : t
val stack : t
val deque : t
val exchanger : t
val spsc : t
(** the derived SPSC spec of Section 3.2: QueueConsistent strengthened by
    the single-producer/single-consumer discipline *)

val of_kind : kind -> t
(** the plain per-kind instance ([queue] / [stack] / [deque]) *)

val check : style -> t -> Graph.t -> Check.violation list
(** check one style of one spec on one execution's graph.  This is the
    single generic checker: [Hb] runs [consistent]; the abs styles
    replay the graph's events in commit order through {!transition}
    from the empty state and check each commit's result and so edge
    against the spec's prediction ([latabs-fifo], [latabs-lifo],
    [latabs-ws-pop], [latabs-ws-steal], [latabs-match],
    [latabs-nonempty]), [Sc_abs] adding that empty removals find the
    state empty ([latabs-empty], SC-DEQ in Figure 2); [Hist] adds the
    linearisable-history {!search}.  The replay and the search follow
    the spec's [kind]; styles a spec has no machinery for check
    vacuously. *)

(** {1 Judge glue}

    The verdict plumbing every scenario judge is built from. *)

val first_violation : Check.violation list -> Explore.verdict

val ( &&& ) :
  ('a -> Explore.verdict) -> ('a -> Explore.verdict) -> 'a -> Explore.verdict
(** combine judges; first violation wins *)

val graph_judge : style -> t -> Graph.t -> 'a -> Explore.verdict
(** judge an execution by checking [style] on the graph *)

(** {1 The registry} *)

type impl = ..
(** implementation payloads are contributed by higher layers (the
    structure factories live in [lib/dstruct], which depends on this
    library) — see {!Compass_clients.Specreg} *)

type impl += No_impl  (** structures without an implementation-generic factory *)

type entry = {
  key : string;  (** the CLI [--struct] key, e.g. ["ms"] *)
  struct_name : string;  (** implementation name, e.g. ["ms-queue"] *)
  descr : string;
  spec : t;
  impl : impl;
  ladder : (style * bool) list;
      (** expected style satisfaction (experiment E2's matrix row);
          empty when the structure is not part of the matrix *)
  site_prefix : string option;
      (** label prefix of the structure's instrumented sites *)
  scenarios : (unit -> Explore.scenario) list;
      (** default client workloads (the audit probes): scenario 0 is the
          MP-style client where one exists *)
  smoke : unit -> Explore.scenario;
      (** small default workload for registry smoke checks *)
  expect_violation : bool;
      (** checked-in broken fixtures: the smoke workload must fail *)
  refinable : bool;
      (** the implementation has a queue or stack factory, so forward
          simulation ([Compass_sim.Sim]) applies *)
}

val register : entry -> unit
(** @raise Invalid_argument on duplicate keys *)

val find : string -> entry option

val all : unit -> entry list
(** in registration order *)

val keys : unit -> string list
