open Compass_machine

(** Site-pair coverage keyed by label strings: the oracle that the
    int-keyed {!Compass_fuzz.Coverage} tracker is compared against.

    For every access it formats a label (its site, else kind @ location
    through {!Compass_rmc.Loc.to_string}), builds a fresh table of
    per-location tables for each execution, and keys every conflicting
    pair by the string ["prev -> next"].  Fingerprints are
    {!Compass_fuzz.Coverage.fingerprint}'s.  Same interface as the
    tracker, so the two are run side by side on one stream of logs. *)

type t

val create : unit -> t
val note : t -> Access.t list -> Compass_fuzz.Coverage.feedback
val distinct : t -> int
val pair_count : t -> int
val new_pair_execs : t -> int
val merge : t -> t -> unit
