open Compass_event

(** The spec-style hierarchy (paper, Sections 2.3-3.3), as checkable
    predicates on one execution's graph:

    - [So_abs]: commit-point abstract state only (Cosmo's demand);
    - [Hb]: graph consistency only (lhb/so conditions) — the LAThb style;
    - [Hb_abs]: both — LAThb-abs;
    - [Hist]: graph consistency plus a linearisable history, found by
      the commit-point search {!Libspec.search} — LAThist;
    - [Sc_abs]: the SC spec of Figure 2 including the truly-empty
      condition — satisfied by no relaxed implementation (Section 2.3's
      "an RMC spec cannot be quite as strong as the SC spec"), only by
      the coarse-grained lock baselines.

    An implementation "satisfies" a style when every explored execution
    passes — the checking counterpart of the paper's per-style
    verification results (experiment E2's matrix). *)

type style = Libspec.style = So_abs | Hb_abs | Hb | Hist | Sc_abs

val style_name : style -> string
val all_styles : style list

type kind = Libspec.kind = Queue | Stack | Deque

val check : style -> kind -> Graph.t -> Check.violation list
(** check one style on one execution's graph ({!Libspec.check} on the
    kind's spec instance) *)

(** {1 Aggregation across executions} *)

(** Satisfaction counts and the first failure's example.  Atomic, so a
    judge may tally from every worker domain of a [--jobs] search. *)
type tally = {
  execs : int Atomic.t;
  failed : int Atomic.t;
  example : Check.violation option Atomic.t;
}

val fresh_tally : unit -> tally
val tally_one : tally -> Check.violation list -> unit
val satisfied : tally -> bool
val pp_tally : Format.formatter -> tally -> unit
