open Compass_rmc
open Compass_event
open Compass_machine

(** The {e deliberately broken} Michael-Scott queue: publication relaxed.

    {!Msqueue} with the enqueue's two publication CASes demoted to
    relaxed — the link CAS on the predecessor's [next] field and the tail
    swing.  A dequeuer that reaches a node through the relaxed link has
    not acquired the enqueuer's non-atomic initialisation of
    [value]/[eid], so its plain loads of those fields race: the machine's
    race detector faults the execution, the RC11 differential checker
    flags the same unordered pair, and the MP client reports the
    violation — the counterexample the paper predicts for dropping the
    release on publication.

    Checked-in regression fixture for the synchronization analyzer and
    the forward-simulation check: behaviourally identical to running the real
    {!Msqueue} under [--weaken msqueue.enq.link_cas=rlx], the weakest
    mutant the mode-necessity audit generates for that site (and must
    classify [Necessary]).  Its registry entry carries
    [expect_violation = true]: its probes must fail, and forward
    simulation must break with a replayable witness. *)

type t

val default_fuel : int

val create : ?fuel:int -> Machine.t -> name:string -> t
val graph : t -> Graph.t

val enq :
  ?extra:(Commit.spec list -> Commit.spec list) -> t -> Value.t -> unit Prog.t

val deq : ?extra:(Commit.spec list -> Commit.spec list) -> t -> Value.t Prog.t
(** returns the value, or [Null] for the empty case *)

val instantiate : Iface.queue_factory
