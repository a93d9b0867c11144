(** Dependency relations shared by the race detector and the DPOR engine.

    Two views of the same idea: the RC11-synchronisation vector-clock
    {!sweep} over recorded access logs (the race detector's
    happens-before), and the Mazurkiewicz-trace order over machine-step
    sequences (the step log, {!steps}) built from footprint commutation —
    the dependency relation source-DPOR needs. *)

open Compass_rmc

(** {1 Footprints}

    What a thread's next operation touches, abstracted to what matters
    for commutation: the location read or written, [FLocal] for steps
    with no shared effect, [FGlobal] for steps conservatively dependent
    on everything (allocation, SC fences). *)

type footprint =
  | FRead of Loc.t  (** atomic read (load, await, the read of an RMW) *)
  | FWrite of Loc.t  (** atomic write (store, RMW) *)
  | FReadNa of Loc.t
      (** non-atomic read — commutes exactly like [FRead], but kept
          distinct so the rf-aware reduction never prunes an
          order-sensitive na-race reversal *)
  | FWriteNa of Loc.t  (** non-atomic write (same caveat) *)
  | FLocal
  | FGlobal

val independent : footprint -> footprint -> bool
(** Steps with these footprints commute: running them in either order
    from the same state reaches the same state. *)

val pp_footprint : Format.formatter -> footprint -> unit

(** {1 Access-log happens-before (RC11 synchronisation)} *)

val sweep : Access.t array -> int -> int -> bool
(** [sweep items] runs a vector-clock forward sweep over an access log
    (aids must equal indices) and returns the hb predicate
    [knows : aid -> aid -> bool].  Models RC11 synchronisation:
    release/acquire message clocks, release sequences through updates,
    fence semantics, SC-fence total order, and fork/join edges.
    Irreflexive use only. *)

(** {1 Mazurkiewicz order over machine steps} *)

type steps
(** A step log: the (tid, footprint) sequence of one execution's
    concurrent-phase steps, oldest first, with one vector clock per step
    computed when it is pushed — the transitive closure of per-thread
    program order plus footprint dependence, restricted to execution
    order.  Mutable and restorable: {!truncate} rolls it back to an
    earlier length by replaying an undo stack, so a checkpoint only has
    to record {!n_steps}. *)

val create : threads:int -> steps
(** an empty log for steps of threads [0 .. threads - 1] *)

val push : steps -> int -> footprint -> unit
(** [push s tid fp] appends a step and computes its clock from joins
    accumulated per thread, per location (reads and writes apart), for
    [FGlobal] steps and for all steps: each step joins the ones it does
    not commute with.  O(threads) per join, plus a scan of the touched
    locations. *)

val truncate : steps -> int -> unit
(** [truncate s n] rolls the log back to its state when it held [n]
    steps, undoing the accumulator changes of the steps it drops.  Only
    valid along the current execution: [n] must have been read by
    {!n_steps} on a state the current one was reached from.
    @raise Invalid_argument if [n] exceeds {!n_steps}. *)

val n_steps : steps -> int
val step_tid : steps -> int -> int
val step_fp : steps -> int -> footprint

val hb : steps -> int -> int -> bool
(** [hb s i j]: step [i] is trace-ordered before step [j].  O(1). *)

val races : ?from:int -> steps -> (int * int) list
(** Reversible races: dependent different-thread pairs [(i, j)], [i < j],
    with no intermediate trace path [i ->hb w ->hb j] — exactly the
    pairs whose reversal reaches a new Mazurkiewicz trace.  [from]
    restricts to races whose later member is at index [>= from].
    Sorted by later member, then earlier.  Read off the clocks: for each
    [j], only another thread's last step ordered before [j] can race it
    directly, and does unless it is ordered before [j]'s own previous
    step or another thread's such step — O(threads{^2}) per [j]. *)
