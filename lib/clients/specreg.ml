open Compass_spec
open Compass_dstruct

(* The populated spec registry.

   [Libspec] owns the table and the entry shape; this module contributes
   the implementation payloads (it can see the factories) and the default
   client workloads — the MP client of Figure 1 paired, where MP alone
   cannot reach a path, with a small contended workload (tail helping,
   competing dequeuers).  Only sites these workloads exercise are
   audited; analyzer verdicts are relative to them. *)

type Libspec.impl +=
  | Queue of Iface.queue_factory
  | Stack of Iface.stack_factory

(* -- default workloads -------------------------------------------------------- *)

let mp_queue factory () = Mp.make factory (Mp.fresh_stats ())
let mp_stack factory () = Mp_stack.make factory (Mp_stack.fresh_stats ())

let wl_queue factory () =
  Harness.queue_workload factory ~enqers:2 ~deqers:1 ~ops:1 ()

let wl_stack factory () =
  Harness.stack_workload factory ~pushers:2 ~poppers:1 ~ops:1 ()

let ws_small () =
  Ws_client.make ~tasks:2 ~thieves:1 ~steals:1 (Ws_client.fresh_stats ())

let exchanger_small () = Harness.exchanger_workload ~threads:2 ()

(* -- the entries -------------------------------------------------------------- *)

(* Ladder expectations are experiment E2's matrix rows (styles the matrix
   does not exercise for a structure are omitted). *)

let entries () =
  [
    {
      Libspec.key = "ms";
      struct_name = "ms-queue";
      descr =
        "Michael-Scott queue (release-acquire) under MP and a 2-enqueuer \
         workload";
      spec = Libspec.queue;
      impl = Queue Msqueue.instantiate;
      ladder =
        [
          (Libspec.Hb, true); (Libspec.So_abs, true); (Libspec.Hb_abs, true);
          (Libspec.Hist, true); (Libspec.Sc_abs, false);
        ];
      site_prefix = Some "msqueue.";
      scenarios = [ mp_queue Msqueue.instantiate; wl_queue Msqueue.instantiate ];
      smoke = wl_queue Msqueue.instantiate;
      expect_violation = false;
      refinable = true;
    };
    {
      Libspec.key = "ms-fences";
      struct_name = "ms-queue-fences";
      descr =
        "Michael-Scott queue (relaxed accesses + fences) under MP and a \
         2-enqueuer workload";
      spec = Libspec.queue;
      impl = Queue Msqueue_fences.instantiate;
      ladder =
        [
          (Libspec.Hb, true); (Libspec.Hb_abs, true); (Libspec.Hist, true);
          (Libspec.Sc_abs, false);
        ];
      site_prefix = Some "msqueue_f.";
      scenarios =
        [
          mp_queue Msqueue_fences.instantiate;
          wl_queue Msqueue_fences.instantiate;
        ];
      smoke = wl_queue Msqueue_fences.instantiate;
      expect_violation = false;
      refinable = true;
    };
    {
      Libspec.key = "ms-weak";
      struct_name = "ms-queue-weak";
      descr =
        "the checked-in publication-relaxed Michael-Scott mutant (its \
         baseline must fail)";
      spec = Libspec.queue;
      impl = Queue Msqueue.relaxed_publication;
      ladder = [];
      site_prefix = Some "msqueue.";
      scenarios = [ mp_queue Msqueue.relaxed_publication ];
      smoke = mp_queue Msqueue.relaxed_publication;
      expect_violation = true;
      refinable = true;
    };
    {
      Libspec.key = "hw";
      struct_name = "hw-queue";
      descr = "Herlihy-Wing queue (rel enq / acq deq) under MP";
      spec = Libspec.queue;
      impl = Queue Hwqueue.instantiate;
      ladder =
        [
          (Libspec.Hb, true); (Libspec.So_abs, false); (Libspec.Hb_abs, false);
          (Libspec.Hist, true);
        ];
      site_prefix = Some "hwqueue.";
      scenarios = [ mp_queue Hwqueue.instantiate ];
      smoke = wl_queue Hwqueue.instantiate;
      expect_violation = false;
      refinable = true;
    };
    {
      Libspec.key = "lock-queue";
      struct_name = "lock-queue";
      descr = "coarse lock-based queue (SC baseline) under MP";
      spec = Libspec.queue;
      impl = Queue Lockqueue.instantiate;
      ladder = [ (Libspec.Sc_abs, true); (Libspec.Hist, true) ];
      site_prefix = Some "lockqueue.";
      scenarios = [ mp_queue Lockqueue.instantiate ];
      smoke = wl_queue Lockqueue.instantiate;
      expect_violation = false;
      refinable = true;
    };
    {
      Libspec.key = "treiber";
      struct_name = "treiber";
      descr = "Treiber stack under stack-MP and a 2-pusher workload";
      spec = Libspec.stack;
      impl = Stack Treiber.instantiate;
      ladder =
        [ (Libspec.Hb, true); (Libspec.Hist, true); (Libspec.Sc_abs, false) ];
      site_prefix = Some "treiber.";
      scenarios =
        [ mp_stack Treiber.instantiate; wl_stack Treiber.instantiate ];
      smoke = wl_stack Treiber.instantiate;
      expect_violation = false;
      refinable = true;
    };
    {
      Libspec.key = "lock-stack";
      struct_name = "lock-stack";
      descr = "coarse lock-based stack (SC baseline) under a 2-pusher workload";
      spec = Libspec.stack;
      impl = Stack Lockstack.instantiate;
      ladder = [ (Libspec.Sc_abs, true); (Libspec.Hist, true) ];
      site_prefix = None;
      scenarios = [ mp_stack Lockstack.instantiate; wl_stack Lockstack.instantiate ];
      smoke = wl_stack Lockstack.instantiate;
      expect_violation = false;
      refinable = true;
    };
    {
      Libspec.key = "es";
      struct_name = "elimination";
      descr =
        "elimination stack (Treiber + exchanger, Section 4.1) under \
         stack-MP and a 2-pusher workload";
      spec = Libspec.stack;
      impl = Stack Elimination.instantiate;
      ladder = [ (Libspec.Hb, true); (Libspec.Hist, true) ];
      site_prefix = None;
      scenarios =
        [ mp_stack Elimination.instantiate; wl_stack Elimination.instantiate ];
      smoke = wl_stack Elimination.instantiate;
      expect_violation = false;
      refinable = true;
    };
    {
      Libspec.key = "chaselev";
      struct_name = "chase-lev";
      descr =
        "Chase-Lev work-stealing deque under the scheduler client \
         (experiment E8)";
      spec = Libspec.deque;
      impl = Libspec.No_impl;
      ladder = [];
      site_prefix = None;
      scenarios = [ ws_small ];
      smoke = ws_small;
      expect_violation = false;
      refinable = false;
    };
    {
      Libspec.key = "exchanger";
      struct_name = "exchanger";
      descr = "single-slot exchanger with helping (Section 4.2)";
      spec = Libspec.exchanger;
      impl = Libspec.No_impl;
      ladder = [];
      site_prefix = Some "exchanger.";
      scenarios = [ exchanger_small ];
      smoke = exchanger_small;
      expect_violation = false;
      refinable = false;
    };
  ]

let registered = ref false

let ensure () =
  if not !registered then begin
    registered := true;
    List.iter Libspec.register (entries ())
  end

let find key = ensure (); Libspec.find key
let all () = ensure (); Libspec.all ()
let keys () = ensure (); Libspec.keys ()

let scenario (e : Libspec.entry) i = List.nth_opt e.Libspec.scenarios i

(* Site metadata comes from the static analyzer's symbolic discovery —
   no exploration, no execution budget — and is memoized per key: the
   CLI asks for it both when emitting [specs --json] and when validating
   [replay --weaken] site labels. *)
let site_table : (string, (string * string) list) Hashtbl.t = Hashtbl.create 8

let sites (e : Libspec.entry) =
  match Hashtbl.find_opt site_table e.Libspec.key with
  | Some s -> s
  | None ->
      let s = Compass_static.Static.site_modes e.Libspec.scenarios in
      Hashtbl.replace site_table e.Libspec.key s;
      s
