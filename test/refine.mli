open Compass_spec
open Compass_machine

(** Outcome inclusion: the weaker refinement method, kept as the oracle
    that forward simulation ([Compass_sim.Sim]) is compared against.

    For each observation client — a small scenario whose thread return
    values {e are} the observations (dequeued/popped values) — the oracle

    + exhaustively explores the client over the {e spec object}
      ({!Specobj}: the registered spec's abstract transitions executed
      atomically), collecting the set of outcome vectors the spec admits;
    + explores the same client over the {e implementation} and judges
      every finished execution by membership: an outcome vector outside
      the spec set is a refinement violation, and any machine fault
      (e.g. a data race) is one too.

    The spec object sits at the top of the strength ladder, yet inclusion
    holds for every correct implementation here because observation
    clients separate inserter and remover roles: the relaxed reorderings
    the weaker specs permit are not observable in return values on these
    shapes.  The broken [ms-weak] fixture fails (the publication race).

    A spec-side exploration that is not exhaustive could under-approximate
    the admitted set and report false violations, so the oracle records
    [spec_complete] per client and fails the client when the spec side
    did not exhaust its (tiny) tree.  The implementation side runs under
    sleep sets with a 120k-execution budget per client. *)

type client_result = {
  client : string;
  spec_complete : bool;
  report : Explore.report;  (** the implementation-side exploration *)
  ok : bool;
}

type report = {
  clients : client_result list;
  ok : bool;
  complete : bool;
      (** every implementation-side exploration exhausted its tree *)
}

val run : Libspec.entry -> report
(** @raise Invalid_argument if the entry is not refinable *)
