(* Quickstart: verify the paper's Message-Passing client (Figure 1).

   Run with:  dune exec examples/quickstart.exe

   Three threads share a Michael-Scott queue [q] and a flag:

     enq(q, 41);            |           | while ([acq] flag == 0) skip;
     enq(q, 42);            |  deq(q)   | deq(q)
     flag :=[rel] 1         |           | // must return 41 or 42, never empty

   We enumerate EVERY execution of this program under the ORC11 memory
   model and check, on each one: the dequeue results, the queue's
   consistency conditions (QueueConsistent — FIFO, EMPDEQ, ...), and the
   deqPerm counting protocol of Figure 3.  This is the model-checking
   counterpart of the paper's Iris proof. *)

open Compass_rmc
open Compass_machine
open Compass_dstruct
open Compass_clients

let () =
  Format.printf "== COMPASS quickstart: the MP client, exhaustively ==@.@.";

  (* 1. Pick an implementation (try [Hwqueue.instantiate] too). *)
  let queue = Msqueue.instantiate in

  (* 2. Build the scenario: [Mp.make] assembles the three threads and a
     judge that checks the verified property on every finished
     execution. *)
  let stats = Mp.fresh_stats () in
  let scenario = Mp.make queue stats in

  (* 3. Explore: DFS enumerates the decision tree (thread interleavings x
     read choices) until exhaustion. *)
  let report = Explore.dfs ~max_execs:200_000 scenario in
  Format.printf "%a@.@.%a@.@." Explore.pp_report report Mp.pp_stats stats;

  (* 4. The ablation: drop the release/acquire on the flag and the empty
     dequeue becomes observable — the behaviour that Cosmo-style specs
     cannot exclude and the paper's hb-tracking specs do. *)
  Format.printf "== Ablation: relaxed flag (no view transfer) ==@.@.";
  let stats_weak = Mp.fresh_stats () in
  let report_weak =
    Explore.dfs ~max_execs:400_000
      (Mp.make ~flag_write:Mode.Rlx ~flag_read:Mode.Rlx queue stats_weak)
  in
  Format.printf "%a@.@.%a@.@." Explore.pp_report report_weak Mp.pp_stats stats_weak;

  if
    Explore.ok report && report.Explore.complete
    && Atomic.get stats.Mp.right_empty = 0
    && Atomic.get stats_weak.Mp.right_empty > 0
  then
    Format.printf
      "VERIFIED: with rel/acq, the right thread never sees an empty queue \
       (%d executions); without it, it does (%d times).@."
      report.Explore.executions (Atomic.get stats_weak.Mp.right_empty)
  else Format.printf "UNEXPECTED — see the reports above.@."
