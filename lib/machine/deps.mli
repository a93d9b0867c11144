(** Dependency relations shared by the race detector and the DPOR engine.

    Two views of the same idea: the RC11-synchronisation vector-clock
    {!sweep} over recorded access logs (the race detector's
    happens-before), and the Mazurkiewicz-trace order over machine-step
    sequences ({!analyze_steps}) built from footprint commutation — the
    dependency relation source-DPOR needs. *)

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
(** The analysed dependency structure of one execution's (tid,
    footprint) step sequence. *)

val analyze_steps : (int * footprint) array -> steps
(** One vector clock per step: the transitive closure of per-thread
    program order plus footprint dependence, restricted to execution
    order.  Computed in one forward pass that keeps, per thread, per
    location (reads and writes apart), for [FGlobal] steps and for all
    steps, the join of the clocks so far; each step joins the ones it
    does not commute with. *)

val hb : steps -> int -> int -> bool
(** [hb s i j]: step [i] is trace-ordered before step [j].  O(1). *)

val races : ?from:int -> steps -> (int * int) list
(** Reversible races: dependent different-thread pairs [(i, j)], [i < j],
    with no intermediate trace path [i ->hb w ->hb j] — exactly the
    pairs whose reversal reaches a new Mazurkiewicz trace.  [from]
    restricts to races whose later member is at index [>= from].
    Sorted by later member, then earlier. *)

val step_tid : steps -> int -> int
val step_fp : steps -> int -> footprint
val n_steps : steps -> int
