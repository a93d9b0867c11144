open Compass_machine
open Compass_spec
open Compass_dstruct

(** A two-queue pipeline client — the "protocol governing multiple
    abstract states" of Section 2.2: source -> q1 -> stage (applies
    [v + 100]) -> q2 -> sink; the sink must observe the transformed
    values in order.  The two queues may be different implementations —
    the modularity the LAT specs buy. *)

(** Tallies over the judged executions, atomic: the judge runs on every
    worker domain of a [--jobs] search. *)
type stats = { executions : int Atomic.t }

val fresh_stats : unit -> stats

val make :
  ?style:Libspec.style ->
  ?n:int ->
  ?retries:int ->
  Iface.queue_factory ->
  Iface.queue_factory ->
  stats ->
  Explore.scenario
