open Compass_machine

(** Counterexample shrinking: delta-debug a violating decision trace
    down to a 1-minimal one that still produces a violation with the same
    message.  Candidates replay clamped (never raise; the clamp total is
    reported); results are normalized logged decision traces with
    trailing zeros stripped, so they are valid strict scripts for
    [compass replay]. *)

type stats = {
  replays : int;
  initial_len : int;
  final_len : int;
  clamped : int;  (** out-of-range choices clamped across all replays *)
}

val reproduces :
  ?config:Machine.config ->
  scenario:Explore.scenario ->
  message:string ->
  Decision.trace ->
  bool
(** does the script (replayed clamped) still violate with [message]? *)

val minimize :
  ?config:Machine.config ->
  ?max_replays:int ->
  scenario:Explore.scenario ->
  message:string ->
  Decision.trace ->
  stats * Decision.trace
(** chunk removal, per-choice zeroing, then a 1-minimality fixpoint of
    single removals and single decrements.  Accepted candidates must
    strictly shrink under the (length, sum) lexicographic measure, so the
    search terminates; if the input does not reproduce at all, it is
    returned unchanged. *)
