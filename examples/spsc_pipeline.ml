(* SPSC and pipeline clients (paper Section 3.2), mixing implementations.

   Run with:  dune exec examples/spsc_pipeline.exe

   The SPSC client moves an array through a queue: the producer enqueues
   a_p[0..n); the consumer dequeues n values (retrying on empty) into a_c.
   End-to-end FIFO means a_c = a_p — including the *non-atomic* array
   accesses being race-free, which exercises view transfer through the
   queue.

   The pipeline client chains two queues of different implementations
   (Michael-Scott feeding Herlihy-Wing and vice versa) through a
   transforming stage — the two-structure protocol of Section 2.2. *)

open Compass_machine
open Compass_dstruct
open Compass_clients

let run name sc =
  let report = Explore.random ~execs:3_000 ~seed:13 sc in
  Format.printf "%-34s %a@." name Explore.pp_report report

let () =
  Format.printf "== SPSC: end-to-end FIFO through one queue ==@.";
  List.iter
    (fun (factory : Iface.queue_factory) ->
      let st = Spsc_client.fresh_stats () in
      run factory.q_name (Spsc_client.make ~n:4 factory st);
      Format.printf "  (consumer retried on empty %d times)@."
        (Atomic.get st.Spsc_client.empties))
    [ Msqueue.instantiate; Hwqueue.instantiate ];

  Format.printf "@.== pipeline: two queues, mixed implementations ==@.";
  List.iter
    (fun (f1, f2) ->
      let st = Pipeline.fresh_stats () in
      run
        (Printf.sprintf "%s -> %s" f1.Iface.q_name f2.Iface.q_name)
        (Pipeline.make ~n:2 f1 f2 st))
    [
      (Msqueue.instantiate, Hwqueue.instantiate);
      (Hwqueue.instantiate, Msqueue.instantiate);
      (Msqueue.instantiate, Msqueue.instantiate);
    ];

  Format.printf "@.== and exhaustively, for a small instance ==@.";
  let st = Spsc_client.fresh_stats () in
  let report =
    Explore.dfs ~max_execs:150_000
      (Spsc_client.make ~n:2 ~retries:3 Msqueue.instantiate st)
  in
  Format.printf "%a@." Explore.pp_report report
