open Compass_spec
open Compass_machine
open Compass_util

(** The refinement driver: implementation vs spec-as-implementation.

    For each observation client — a small scenario whose thread return
    values {e are} the observations (dequeued/popped values) — the driver

    + exhaustively explores the client over the {e spec object}
      ({!Compass_dstruct.Specobj}: the registered spec's abstract
      transitions executed atomically), collecting the set of outcome
      vectors the spec admits;
    + explores the same client over the {e implementation} and judges
      every finished execution by membership: an outcome vector outside
      the spec set is a refinement violation, and any machine fault
      (e.g. a data race) is one too.

    Outcome-set inclusion against the executable spec is the operational
    analogue of the paper's refinement between an implementation and its
    specification.  The spec object sits at the top of the strength
    ladder, yet inclusion holds for every correct implementation here
    because observation clients separate inserter and remover roles: the
    relaxed reorderings the weaker specs permit are not observable in
    return values on these shapes.  The broken [ms-weak] fixture fails
    with a replayable counterexample script (the publication race).

    Soundness: a spec-side exploration that is not exhaustive could
    under-approximate the admitted set and report false violations, so
    the driver records [spec_complete] per client and conservatively
    fails the client when the spec side did not exhaust its (tiny)
    tree. *)

type options = {
  max_execs : int;  (** implementation-side exploration budget *)
  spec_execs : int;  (** spec-side budget (the trees are tiny) *)
  jobs : int;
  reduce : Machine.reduction;
      (** implementation side only; verdict-preserving *)
}

val default_options : options

type client_result = {
  client : string;
  spec_outcomes : int;  (** distinct outcome vectors the spec admits *)
  spec_complete : bool;
  report : Explore.report;  (** the implementation-side exploration *)
  ok : bool;
}

type report = {
  struct_key : string;
  impl_name : string;
  spec_name : string;
  clients : client_result list;
  counterexample : (int * Explore.failure) option;
      (** first refinement violation and the index of the observation
          client that produced it: replayable with
          [compass replay --struct KEY --refine-client I --script ...] *)
  ok : bool;
  complete : bool;
      (** every implementation-side exploration exhausted its tree; a
          pass from an incomplete search only means no violation within
          the executions run *)
}

val run : ?options:options -> Libspec.entry -> report
(** @raise Invalid_argument if the entry is not refinable *)

val client_scenario : Libspec.entry -> int -> Explore.scenario option
(** the [i]-th observation client over the entry's implementation, with a
    membership judge against a freshly explored spec outcome set — what
    counterexample replay runs *)

val pp : Format.formatter -> report -> unit
(** the verdict line reads REFINES only for a complete search; a pass
    from an incomplete one reads "no violation within N executions" *)

val to_json : report -> Jsonout.t
