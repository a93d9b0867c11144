open Compass_rmc
open Compass_event
open Compass_machine

(** Michael-Scott queue [Michael & Scott, PODC'96], purely release-acquire
    — verified in the paper against the LATabs-hb specs (Section 3.2).

    Commit points: enqueue = the successful link CAS; successful dequeue =
    the head CAS; empty dequeue = the acquire load of [head->next] that
    returned null.  All CASes are acq-rel: the release side of the head
    CAS is load-bearing (a later dequeuer reaches nodes through head, not
    through the enqueuers' next-chain — weakening it to a plain acquire
    CAS is a genuine relaxed-memory bug that the race detector catches). *)

type t

val default_fuel : int

val create : ?fuel:int -> Machine.t -> name:string -> t
val graph : t -> Graph.t

val enq :
  ?extra:(Commit.spec list -> Commit.spec list) -> t -> Value.t -> unit Prog.t

val deq : ?extra:(Commit.spec list -> Commit.spec list) -> t -> Value.t Prog.t
(** returns the value, or [Null] for the empty case *)

val instantiate : Iface.queue_factory
(** [q_name = "ms-queue"] *)

val relaxed_publication : Iface.queue_factory
(** The {e deliberately broken} queue, [q_name = "ms-queue-weak"]: this
    body with the enqueue's three CASes on [next] and [tail] relaxed,
    the same program as {!instantiate} run under the overrides
    [msqueue.enq.link_cas=rlx], [msqueue.enq.tail_swing=rlx] and
    [msqueue.enq.tail_help=rlx].  A dequeuer that reaches a node through
    the relaxed link has not acquired the enqueuer's non-atomic
    initialisation of [value]/[eid], so its plain loads of those fields
    race: the counterexample the paper predicts for dropping the release
    on publication.  The registry's [ms-weak] entry, a regression fixture
    for the synchronization analyzer and forward simulation. *)
