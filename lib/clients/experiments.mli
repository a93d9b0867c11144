open Compass_spec
open Compass_machine

(** The experiment battery of DESIGN.md (E1-E8): every evaluation claim of
    the paper (plus the E8 extension), run end to end with a
    machine-readable paper-vs-measured summary.  [bin/compass report]
    prints it; EXPERIMENTS.md records a reference run. *)

type line = {
  id : string;
  name : string;
  paper : string;  (** the paper's claim *)
  measured : string;  (** what this run measured *)
  ok : bool;
}

val pp_line : Format.formatter -> line -> unit

val e1 : ?max_execs:int -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line list
(** MP client (Figures 1 and 3) + the weak-flag ablation, per queue.

    Every experiment's exhaustive leg accepts [jobs] (domains sharing
    the DFS, {!Explore.dfs}) and [reduce] (source-DPOR, plain or
    reads-from–aware).  Verdicts are preserved either way; with
    [reduce] the
    per-execution client counters quoted in [measured] only cover the
    representative interleavings actually explored. *)

type matrix_cell = {
  impl : string;
  style : Libspec.style;
  tally : Styles.tally;
}

val matrix :
  ?dfs_execs:int ->
  ?rand_execs:int ->
  ?jobs:int ->
  ?reduce:Machine.reduction ->
  unit ->
  matrix_cell list
(** the raw spec-style satisfaction matrix (E2): every style on each
    registry entry with a ladder — the paper's implementations and the
    lock-based SC baselines *)

val pp_matrix : Format.formatter -> matrix_cell list -> unit

val e2 :
  ?dfs_execs:int ->
  ?rand_execs:int ->
  ?jobs:int ->
  ?reduce:Machine.reduction ->
  unit ->
  matrix_cell list * line
(** the matrix, OK when every cell agrees with its entry's ladder *)

val e2b : ?max_execs:int -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line
(** strong FIFO recovery under a client lock (Section 3.1), with the bare
    negative control *)

val e3 : ?max_execs:int -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line

val e4 :
  ?dfs_execs:int -> ?rand_execs:int -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line list

val e5 : ?max_execs:int -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line

val e6 :
  ?dfs_execs:int -> ?rand_execs:int -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line list

val e8 :
  ?dfs_execs:int -> ?rand_execs:int -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line list

val e7_paper_numbers : (string * string) list
(** the paper's proof-effort reference points (Section 1.2 / 6) *)

val all : ?quick:bool -> ?jobs:int -> ?reduce:Machine.reduction -> unit -> line list
(** the whole battery; [quick] divides budgets by ~10 *)
