open Compass_rmc
open Compass_event

(* The interleaving machine.

   One machine instance executes one scenario once: a solo setup phase
   (allocation and initialisation, deterministic), a concurrent phase
   (threads interleaved step by step, all nondeterminism resolved by an
   oracle), and an optional finale (runs after all threads have returned,
   with the join of their views — the parent thread after joining its
   children).

   Because ORC11 forbids load-buffering (po ∪ rf acyclic), an interleaving-
   based operational semantics with stale-read choices is adequate: the
   weak behaviours come from reading old messages and from view-limited
   message views, never from cycles in po ∪ rf. *)

type config = {
  max_steps : int;  (** per concurrent phase; exceeding yields [Bounded] *)
  policy : Memory.policy;
  record_trace : bool;
  record_accesses : bool;
      (** record memory accesses for the axiomatic differential check
          ({!Rc11}) *)
  overrides : Override.t;
      (** mode overrides applied by site label just before an instruction
          executes — how the synchronization audit runs weakened mutants
          of unmodified programs *)
}

let default_config =
  {
    max_steps = 10_000;
    policy = `Append;
    record_trace = false;
    record_accesses = false;
    overrides = Override.empty;
  }

type thread = {
  tid : int;
  mutable prog : Value.t Prog.t;
  mutable tv : Tview.t;
  mutable finished : Value.t option;
}

type outcome =
  | Finished of Value.t array  (** all threads returned; their results *)
  | Fault of string  (** data race, uninitialised read, or program error *)
  | Blocked of string  (** deadlock on [await], or a spin loop out of fuel *)
  | Bounded  (** step budget exhausted *)
  | Pruned
      (** sleep-set reduction: the scheduled thread was asleep, so every
          execution below this point is a commuted copy of one already
          explored *)

let pp_outcome ppf = function
  | Finished vs ->
      Format.fprintf ppf "finished(%a)"
        (Format.pp_print_seq
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Value.pp)
        (Array.to_seq vs)
  | Fault s -> Format.fprintf ppf "fault: %s" s
  | Blocked s -> Format.fprintf ppf "blocked: %s" s
  | Bounded -> Format.pp_print_string ppf "bounded"
  | Pruned -> Format.pp_print_string ppf "pruned"

(* Footprints (for partial-order reduction) are {!Deps.footprint},
   re-exported so existing users keep constructing them unqualified; the
   reduction machinery itself lives further down. *)
type footprint = Deps.footprint =
  | FRead of Loc.t
  | FWrite of Loc.t
  | FReadNa of Loc.t
  | FWriteNa of Loc.t
  | FLocal
  | FGlobal

(* How the scheduler prunes commuted interleavings.  [RDpor] is steered
   from outside: the machine only records the (tid, footprint) step log,
   honours the sleep sets the DPOR search installs, and wakes sleepers on
   dependent steps — the backtrack/wakeup-tree logic lives in
   {!Dpor}/{!Explore}.  [RDporRf] is [RDpor] to the machine; the search
   additionally prunes race reversals and executions whose reads-from
   class was already explored. *)
type reduction = RNone | RDpor | RDporRf

(* Snapshot types are declared here because the machine keeps its last
   snapshot as a cache; the snapshot/restore machinery lives further
   down. *)
type thread_snap = {
  ts_prog : Value.t Prog.t;
  ts_tv : Tview.t;
  ts_finished : Value.t option;
}

type snapshot = {
  s_mem : Memory.snapshot;
  s_reg : Registry.snapshot;
  s_setup_tv : Tview.t;
  s_threads : thread_snap array;
  s_step : int;
  s_trace : Trace.entry list;
  s_sc_view : View.t;
  s_sc_lview : Lview.t;
  s_accesses : Access.t list;
  s_next_aid : int;
  s_sleep : (int * footprint) list;
  s_dpor_len : int;
  s_run_deadline : int;
}

type t = {
  config : config;
  mem : Memory.t;
  reg : Registry.t;
  mutable setup_tv : Tview.t;
  mutable threads : thread array;
  mutable step : int;
  mutable trace : Trace.entry list;  (** newest first *)
  mutable sc_view : View.t;
      (** global SC-fence view: SC fences join with it both ways, which
          totally orders them — the standard operational account of C11 SC
          fences (e.g. in the promising semantics) *)
  mutable sc_lview : Lview.t;
  mutable accesses : Access.t list;  (** newest first; see [record_accesses] *)
  mutable next_aid : int;
  mutable sleep : (int * footprint) list;
      (** sleep set along the current path (tid, pending footprint); lives
          in the machine so checkpoints can capture and resume it *)
  mutable dpor_log : Deps.steps option;
      (** under [RDpor]: the step log of the current path with its
          clocks, made at the first logged step.  A checkpoint records
          its length and {!restore} truncates back to it. *)
  mutable run_deadline : int;
      (** absolute step bound of the current concurrent phase; kept across
          checkpoint restores so a resumed run bounds exactly like a
          from-the-root replay *)
  mutable snap_cache : snapshot option;
      (** last snapshot taken or restored; {!snapshot} reuses its
          per-thread records when a thread hasn't changed *)
  mutable spawned : Value.t Prog.t list;
      (** the initial thread programs as passed to {!spawn}, before any
          execution consumed them — the static analyzer's entry point
          into a built scenario.  Not snapshotted: set once per build. *)
}

let create ?(config = default_config) () =
  {
    config;
    mem = Memory.create ~policy:config.policy ();
    reg = Registry.create ();
    setup_tv = Tview.init;
    threads = [||];
    step = 0;
    trace = [];
    sc_view = View.bot;
    sc_lview = Lview.empty;
    accesses = [];
    next_aid = 0;
    sleep = [];
    dpor_log = None;
    run_deadline = max_int;
    snap_cache = None;
    spawned = [];
  }

let registry m = m.reg
let memory m = m.mem
let trace m = List.rev m.trace
let steps m = m.step
let new_graph m ~name = Registry.new_graph m.reg ~name

let record m ~tid descr =
  if m.config.record_trace then
    m.trace <- { Trace.step = m.step; tid; descr = descr () } :: m.trace

let accesses m = List.rev m.accesses

let record_access m ~tid ?site ~loc ~kind ~mode ~read_ts ~write_ts () =
  if m.config.record_accesses then begin
    let aid = m.next_aid in
    m.next_aid <- aid + 1;
    m.accesses <-
      Access.Access { aid; tid; loc; kind; mode; read_ts; write_ts; site }
      :: m.accesses
  end

let record_fence m ~tid ?site fence =
  if m.config.record_accesses then begin
    let aid = m.next_aid in
    m.next_aid <- aid + 1;
    m.accesses <- Access.Fence { aid; tid; fence; site } :: m.accesses
  end

(* Choices with a single alternative consume no oracle decision: this keeps
   DFS decision scripts short.  [dkind]/[site] type the logged decision;
   post-pick annotation (scheduled tid, rf provenance) must therefore be
   guarded with [arity > 1] by callers — an arity-1 choice logs nothing. *)
let choose ?kind ?dkind ?site oracle ~arity =
  if arity = 1 then 0 else Oracle.choose ?kind ?dkind ?site oracle ~arity

(* -- commits ---------------------------------------------------------------- *)

(* Perform the commit specs produced by an operation's commit function, in
   the same atomic step as the operation.  [written] is the message the
   operation wrote, if any; absorbed events are patched into its logical
   view so that future readers of the commit write observe them. *)
let run_commits m (th : thread) ~(written : Msg.t ref option)
    (specs : Commit.spec list) =
  let sub = ref 0 in
  List.iter
    (fun (spec : Commit.spec) ->
      let g = Registry.graph m.reg spec.obj in
      List.iter
        (fun (es : Commit.ev_spec) ->
          let view = match es.view with Some v -> v | None -> th.tv.Tview.cur in
          let logview =
            match es.lview with
            | Some lv -> Lview.add es.eid lv
            | None -> Lview.add es.eid th.tv.Tview.cur_l
          in
          let data =
            {
              Event.id = es.eid;
              obj = spec.obj;
              typ = es.typ;
              tid = Option.value es.tid ~default:th.tid;
              view;
              logview;
              cix = (m.step, !sub);
            }
          in
          incr sub;
          Graph.commit g data;
          if m.config.record_trace then
            record m ~tid:th.tid (fun () ->
              Format.asprintf "commit %a to %s" Event.pp data (Graph.name g));
          if es.absorb then begin
            th.tv <- Tview.observe_event th.tv es.eid;
            match written with
            | Some msg ->
                msg := { !msg with Msg.lview = Lview.add es.eid !msg.Msg.lview }
            | None -> ()
          end)
        spec.events;
      List.iter (fun (a, b) -> Graph.add_so g ~from:a ~into:b) spec.so)
    specs

(* -- operation semantics ----------------------------------------------------- *)

let mk_res ?(success = true) ~value ~view ~lview () =
  { Prog.value; view; lview; success }

(* Execute the write half of a store/RMW: pick a timestamp, compute the
   message views, insert the message.  Returns the inserted message ref, so
   commits can patch it. *)
let do_write m (th : thread) oracle ?site ~l ~value ~mode ?rmw_read () =
  let above = View.get th.tv.Tview.cur l in
  let ts =
    match rmw_read with
    | Some (msg : Msg.t) ->
        (* RMW atomicity: the new write is immediately mo-after the read. *)
        let next = Memory.max_ts m.mem l + 1 in
        assert (msg.Msg.ts = Memory.max_ts m.mem l);
        next
    | None ->
        if mode = Mode.Na then begin
          (try
             ignore
               (Memory.na_check m.mem l ~tv:th.tv ~tid:th.tid ~kind:"na-write")
           with Memory.Error (Memory.Race _) as e ->
             (* Record the faulting access (no timestamp: it never landed)
                so the race pair is visible to the analysis-side race
                detector even though the machine aborts the execution. *)
             record_access m ~tid:th.tid ?site ~loc:l ~kind:Access.Store
               ~mode:Mode.Na ~read_ts:None ~write_ts:None ();
             raise e);
          Memory.max_ts m.mem l + 1
        end
        else if m.config.policy = `Append then
          (* Single candidate, no oracle decision and no choice list. *)
          Memory.append_ts m.mem l ~above
        else begin
          let choices = Memory.write_ts_choices m.mem l ~above in
          List.nth choices
            (choose ~dkind:(Decision.Ts l) ?site oracle
               ~arity:(List.length choices))
        end
  in
  let tv', view, lview = Tview.write th.tv ~l ~ts ~mode ?rmw_read () in
  th.tv <- tv';
  let msg = Msg.make ~loc:l ~ts ~value ~view ~lview ~wtid:th.tid in
  Memory.add_msg m.mem msg

(* Read choice for an atomic load: count, decide, index — no choice list
   is ever built (the readable set is an index range of the history). *)
let pick_read m (th : thread) oracle ?site l =
  let from = View.get th.tv.Tview.cur l in
  let arity = Memory.read_arity m.mem l ~from in
  assert (arity > 0);
  let mref =
    Memory.read_nth m.mem l ~from
      (choose ~dkind:(Decision.Read l) ?site oracle ~arity)
  in
  if arity > 1 then
    Oracle.annotate_rf oracle ~ts:!mref.Msg.ts ~wtid:!mref.Msg.wtid;
  mref

(* Execute one operation of thread [th].  Returns the continuation's next
   program.  Raises [Memory.Error] on races and whatever the program raises
   on logic errors. *)
let exec_op m (th : thread) oracle (op : Prog.op) (k : Prog.res -> Value.t Prog.t)
    : Value.t Prog.t =
  let site = op.Prog.site in
  match op.Prog.instr with
  | Prog.Load (l, mode, commit) ->
      let mode = Override.access m.config.overrides ~site mode in
      let mref =
        if mode = Mode.Na then (
          try Memory.na_read m.mem l ~tv:th.tv ~tid:th.tid
          with Memory.Error (Memory.Race _) as e ->
            (* Record the faulting read (no timestamp: it never landed) so
               the race pair is visible to the analysis-side race detector
               even though the machine aborts the execution. *)
            record_access m ~tid:th.tid ?site ~loc:l ~kind:Access.Load
              ~mode:Mode.Na ~read_ts:None ~write_ts:None ();
            raise e)
        else pick_read m th oracle ?site l
      in
      let msg = !mref in
      th.tv <- Tview.read th.tv msg mode;
      if m.config.record_trace then
        record m ~tid:th.tid (fun () ->
          Format.asprintf "load_%a %a -> %a" Mode.pp_access mode Loc.pp l
            Value.pp msg.Msg.value);
      record_access m ~tid:th.tid ?site ~loc:l ~kind:Access.Load ~mode
        ~read_ts:(Some msg.Msg.ts) ~write_ts:None ();
      let res =
        mk_res ~value:msg.Msg.value ~view:msg.Msg.view ~lview:msg.Msg.lview ()
      in
      (match commit with
      | Some f -> run_commits m th ~written:None (f { value = msg.Msg.value; success = true })
      | None -> ());
      k res
  | Prog.Await (l, mode, pred, commit) ->
      let mode = Override.access m.config.overrides ~site mode in
      let from = View.get th.tv.Tview.cur l in
      let sat (mref : Msg.t ref) = pred !mref.Msg.value in
      let arity = Memory.sat_arity m.mem l ~from ~sat in
      (* The scheduler only runs an await when it is enabled. *)
      assert (arity > 0);
      let mref =
        Memory.sat_nth m.mem l ~from ~sat
          (choose ~dkind:(Decision.Await l) ?site oracle ~arity)
      in
      if arity > 1 then
        Oracle.annotate_rf oracle ~ts:!mref.Msg.ts ~wtid:!mref.Msg.wtid;
      let msg = !mref in
      th.tv <- Tview.read th.tv msg mode;
      if m.config.record_trace then
        record m ~tid:th.tid (fun () ->
          Format.asprintf "await_%a %a -> %a" Mode.pp_access mode Loc.pp l
            Value.pp msg.Msg.value);
      record_access m ~tid:th.tid ?site ~loc:l ~kind:Access.Load ~mode
        ~read_ts:(Some msg.Msg.ts) ~write_ts:None ();
      let res =
        mk_res ~value:msg.Msg.value ~view:msg.Msg.view ~lview:msg.Msg.lview ()
      in
      (match commit with
      | Some f -> run_commits m th ~written:None (f { value = msg.Msg.value; success = true })
      | None -> ());
      k res
  | Prog.Store (l, v, mode, commit) ->
      let mode = Override.access m.config.overrides ~site mode in
      let mref = do_write m th oracle ?site ~l ~value:v ~mode () in
      if m.config.record_trace then
        record m ~tid:th.tid (fun () ->
          Format.asprintf "store_%a %a := %a" Mode.pp_access mode Loc.pp l
            Value.pp v);
      record_access m ~tid:th.tid ?site ~loc:l ~kind:Access.Store ~mode
        ~read_ts:None ~write_ts:(Some !mref.Msg.ts) ();
      (match commit with
      | Some f -> run_commits m th ~written:(Some mref) (f { value = v; success = true })
      | None -> ());
      k (mk_res ~value:v ~view:th.tv.Tview.cur ~lview:th.tv.Tview.cur_l ())
  | Prog.Rmw (l, kind, mode, commit) ->
      let mode = Override.access m.config.overrides ~site mode in
      (* Read-mode / write-mode split of the RMW access mode. *)
      let rmode =
        match mode with
        | Mode.AcqRel | Mode.Acq -> Mode.Acq
        | Mode.Rel | Mode.Rlx -> Mode.Rlx
        | Mode.Na -> invalid_arg "RMW cannot be non-atomic"
      in
      let wmode =
        match mode with
        | Mode.AcqRel | Mode.Rel -> Mode.Rel
        | Mode.Acq | Mode.Rlx -> Mode.Rlx
        | Mode.Na -> assert false
      in
      let from = View.get th.tv.Tview.cur l in
      let latest_ts = Memory.max_ts m.mem l in
      let mref =
        match kind with
        | Prog.Cas (expected, _) ->
            (* A strong CAS must succeed whenever it reads [expected]; a
               successful RMW must read the mo-maximal message.  Hence: the
               latest message is always a candidate; an older message is a
               candidate (a genuine failure) only if its value differs. *)
            let sat (mref : Msg.t ref) =
              !mref.Msg.ts = latest_ts
              || not (Value.equal !mref.Msg.value expected)
            in
            let arity = Memory.sat_arity m.mem l ~from ~sat in
            assert (arity > 0);
            let mref =
              Memory.sat_nth m.mem l ~from ~sat
                (choose ~dkind:(Decision.Cas l) ?site oracle ~arity)
            in
            if arity > 1 then
              Oracle.annotate_rf oracle ~ts:!mref.Msg.ts ~wtid:!mref.Msg.wtid;
            mref
        | Prog.Faa _ | Prog.Xchg _ ->
            (* Unconditional RMWs always succeed: only the latest, which
               is readable because views never run ahead of mo. *)
            Memory.latest m.mem l
      in
      let msg = !mref in
      let success, new_value =
        match kind with
        | Prog.Cas (expected, desired) ->
            if msg.Msg.ts = latest_ts && Value.equal msg.Msg.value expected then
              (true, Some desired)
            else (false, None)
        | Prog.Faa d -> (true, Some (Value.Int (Value.to_int_exn msg.Msg.value + d)))
        | Prog.Xchg v -> (true, Some v)
      in
      th.tv <- Tview.read th.tv msg rmode;
      let written =
        match new_value with
        | Some v -> Some (do_write m th oracle ~l ~value:v ~mode:wmode ~rmw_read:msg ())
        | None -> None
      in
      if m.config.record_trace then
        record m ~tid:th.tid (fun () ->
          Format.asprintf "rmw_%a %a: read %a%s" Mode.pp_access mode Loc.pp l
            Value.pp msg.Msg.value
            (match new_value with
            | Some v -> Format.asprintf ", wrote %a" Value.pp v
            | None -> " (failed)"));
      (match written with
      | Some w ->
          record_access m ~tid:th.tid ?site ~loc:l ~kind:Access.Update ~mode
            ~read_ts:(Some msg.Msg.ts) ~write_ts:(Some !w.Msg.ts) ()
      | None ->
          (* A failed CAS is just a read with the read-part mode. *)
          record_access m ~tid:th.tid ?site ~loc:l ~kind:Access.Load ~mode:rmode
            ~read_ts:(Some msg.Msg.ts) ~write_ts:None ());
      (match commit with
      | Some f -> run_commits m th ~written (f { value = msg.Msg.value; success })
      | None -> ());
      k (mk_res ~success ~value:msg.Msg.value ~view:msg.Msg.view ~lview:msg.Msg.lview ())
  | Prog.Fence f0 -> (
      match Override.fence m.config.overrides ~site f0 with
      | None ->
          (* Dropped by an override: the op degenerates to a yield (still
             one machine step, so decision scripts keep their shape). *)
          if m.config.record_trace then
            record m ~tid:th.tid (fun () ->
              Format.asprintf "%a (dropped)" Mode.pp_fence f0);
          k (mk_res ~value:Value.Unit ~view:th.tv.Tview.cur
               ~lview:th.tv.Tview.cur_l ())
      | Some f ->
      th.tv <- Tview.fence th.tv f;
      (if f = Mode.F_sc then begin
         (* Join with the global SC view both ways: the interleaving order
            of SC fences becomes their total (sc) order. *)
         let tv = th.tv in
         let cur = View.join tv.Tview.cur m.sc_view in
         let cur_l = Lview.join tv.Tview.cur_l m.sc_lview in
         m.sc_view <- cur;
         m.sc_lview <- cur_l;
         th.tv <-
           {
             Tview.cur;
             acq = View.join tv.Tview.acq cur;
             rel = cur;
             cur_l;
             acq_l = Lview.join tv.Tview.acq_l cur_l;
             rel_l = cur_l;
           }
       end);
      if m.config.record_trace then
        record m ~tid:th.tid (fun () -> Format.asprintf "%a" Mode.pp_fence f);
      record_fence m ~tid:th.tid ?site f;
      k (mk_res ~value:Value.Unit ~view:th.tv.Tview.cur ~lview:th.tv.Tview.cur_l ()))
  | Prog.Alloc { name; size; init } ->
      let loc = Memory.alloc m.mem ~name ~size ~init_value:init in
      (* The allocating thread observes the initialisation writes. *)
      let tv = ref th.tv in
      for off = 0 to size - 1 do
        let cell = Loc.shift loc off in
        tv :=
          {
            !tv with
            Tview.cur = View.extend !tv.Tview.cur cell Timestamp.init;
            acq = View.extend !tv.Tview.acq cell Timestamp.init;
          };
        (* The initialisation writes, so reads-from-init has a source. *)
        record_access m ~tid:th.tid ?site ~loc:cell ~kind:Access.Store
          ~mode:Mode.Na ~read_ts:None ~write_ts:(Some Timestamp.init) ()
      done;
      th.tv <- !tv;
      if m.config.record_trace then
        record m ~tid:th.tid (fun () ->
          Format.asprintf "alloc %s[%d] = %a" name size Loc.pp loc);
      k (mk_res ~value:(Value.Ptr loc) ~view:th.tv.Tview.cur ~lview:th.tv.Tview.cur_l ())
  | Prog.Yield ->
      if m.config.record_trace then
        record m ~tid:th.tid (fun () -> "yield");
      k (mk_res ~value:Value.Unit ~view:th.tv.Tview.cur ~lview:th.tv.Tview.cur_l ())
  | Prog.Tid ->
      k (mk_res ~value:(Value.Int th.tid) ~view:th.tv.Tview.cur
           ~lview:th.tv.Tview.cur_l ())

(* Resolve non-step constructors: [Reserve] consumes no machine step (ids
   commute with everything), and [Ret] finishes the thread. *)
let rec settle m (th : thread) =
  match th.prog with
  | Prog.Reserve k ->
      th.prog <- k (Registry.reserve m.reg);
      settle m th
  | Prog.Ret v -> if th.finished = None then th.finished <- Some v
  | Prog.Op _ -> ()

(* Is the thread's next operation enabled? *)
let enabled m (th : thread) =
  match th.prog with
  | Prog.Op ({ Prog.instr = Prog.Await (l, _, pred, _); _ }, _) ->
      let from = View.get th.tv.Tview.cur l in
      Memory.sat_exists m.mem l ~from ~sat:(fun mref -> pred !mref.Msg.value)
  | _ -> true

let step_thread m (th : thread) oracle =
  match th.prog with
  | Prog.Op (op, k) ->
      m.step <- m.step + 1;
      th.prog <- exec_op m th oracle op k;
      settle m th
  | Prog.Ret _ | Prog.Reserve _ -> assert false

(* -- phases ------------------------------------------------------------------ *)

(* Run [prog] to completion deterministically on a fresh pseudo-thread that
   shares the setup view.  Used for setup (before [spawn]) and finale
   (after [run]). *)
let solo ?(tid = -1) m prog =
  let th = { tid; prog; tv = m.setup_tv; finished = None } in
  let oracle = Oracle.fresh_latest () in
  settle m th;
  let fuel = ref 1_000_000 in
  while th.finished = None do
    decr fuel;
    if !fuel <= 0 then failwith "Machine.solo: divergence";
    if not (enabled m th) then failwith "Machine.solo: blocked await";
    step_thread m th oracle
  done;
  m.setup_tv <- th.tv;
  Option.get th.finished

(* Convenience: allocate during setup. *)
let alloc m ?init ~name size =
  solo m (Prog.map (Prog.alloc ?init ~name size) (fun l -> Value.Ptr l))
  |> Value.to_loc_exn

let spawn m progs =
  m.spawned <- progs;
  m.threads <-
    Array.of_list
      (List.mapi
         (fun i prog -> { tid = i; prog; tv = m.setup_tv; finished = None })
         progs)

let spawned_progs m = m.spawned

let thread_view m tid = m.threads.(tid).tv

(* -- independence, for sleep-set reduction ----------------------------------

   The footprint of a thread's next operation, abstracted to what matters
   for commutation with another thread's step: the location it reads or
   writes, or [FLocal] (no shared effect: yields, thread ids, non-SC
   fences, which only move the thread's own view) or [FGlobal]
   (conservatively dependent on everything: allocation renumbers blocks,
   SC fences join the machine-global SC view).

   Two steps are independent when running them in either order yields the
   same machine state up to event-id renaming: accesses to different
   locations commute, and two reads of the same location commute because
   reads never change a history.  Commit annotations riding on the
   operations add events to per-object graphs; swapping two independent
   steps permutes reservation order and commit indices, which yields an
   isomorphic graph — and every checked predicate (consistency conditions,
   spec styles) is invariant under that isomorphism. *)

(* The footprint classifies the *effective* access: mode overrides (the
   audit's weakened mutants) are applied first, so a load weakened to
   non-atomic is [FReadNa] here exactly as it will execute, and a dropped
   SC fence no longer counts as [FGlobal]. *)
let footprint m (th : thread) =
  match th.prog with
  | Prog.Op (op, _) -> (
      let site = op.Prog.site in
      match op.Prog.instr with
      | Prog.Load (l, mode, _) | Prog.Await (l, mode, _, _) ->
          if Override.access m.config.overrides ~site mode = Mode.Na then
            FReadNa l
          else FRead l
      | Prog.Store (l, _, mode, _) ->
          if Override.access m.config.overrides ~site mode = Mode.Na then
            FWriteNa l
          else FWrite l
      | Prog.Rmw (l, _, _, _) -> FWrite l
      | Prog.Fence f -> (
          match Override.fence m.config.overrides ~site f with
          | Some Mode.F_sc -> FGlobal
          | Some _ | None -> FLocal)
      | Prog.Alloc _ -> FGlobal
      | Prog.Yield | Prog.Tid -> FLocal)
  | Prog.Ret _ | Prog.Reserve _ -> FLocal

let independent = Deps.independent

(* DPOR driver hooks: the per-path step log (the live one, oldest
   first), the current sleep set, driver installation of a sleep set at a
   branch point, and the pending footprint of a thread by tid — what the
   driver snapshots at each scheduling observation. *)
let dpor_steps m =
  match m.dpor_log with
  | Some l -> l
  | None -> Deps.create ~threads:(Array.length m.threads)

let dpor_depth m =
  match m.dpor_log with Some l -> Deps.n_steps l | None -> 0

let truncate_log m n =
  match m.dpor_log with Some l -> Deps.truncate l n | None -> ()

let log_step m tid fp =
  match m.dpor_log with
  | Some l -> Deps.push l tid fp
  | None ->
      let l = Deps.create ~threads:(Array.length m.threads) in
      Deps.push l tid fp;
      m.dpor_log <- Some l

let get_sleep m = m.sleep
let set_sleep m s = m.sleep <- s

let pending_footprint m tid =
  let th = Array.find_opt (fun th -> th.tid = tid) m.threads in
  match th with Some th -> footprint m th | None -> FLocal

(* Initialise the concurrent-phase deadline and sleep set without running:
   what [run ~resume:false] does on entry.  The incremental explorer primes
   the machine once after build, snapshots it as the root checkpoint, and
   then always runs with [~resume:true] — so a root restored after some
   forced steps keeps the deadline a from-the-root replay would have. *)
let prime m =
  m.run_deadline <- m.step + m.config.max_steps;
  m.sleep <- [];
  truncate_log m 0

let run ?(reduction = RNone) ?(resume = false) ?on_step ?on_sched m oracle =
  let n = Array.length m.threads in
  if n = 0 then invalid_arg "Machine.run: no threads (call spawn)";
  if not resume then prime m;
  (* Scratch for the per-step runnable scan: indices into [m.threads],
     filled in array order.  One small array per [run], none per step. *)
  let runnable = Array.make n 0 in
  let rec loop () =
    let threads = m.threads in
    let n_run = ref 0 and unfinished = ref false in
    for i = 0 to n - 1 do
      let th = threads.(i) in
      settle m th;
      if th.finished = None then begin
        unfinished := true;
        if enabled m th then begin
          runnable.(!n_run) <- i;
          incr n_run
        end
      end
    done;
    if not !unfinished then
      Finished (Array.map (fun th -> Option.get th.finished) threads)
    else if !n_run = 0 then Blocked "deadlock: all unfinished threads await"
    else if m.step >= m.run_deadline then Bounded
    else begin
      let arity = !n_run in
      (* A scheduling *decision* (arity > 1) is about to be consumed and
         the machine is at a settled step boundary: the incremental
         explorer's last chance to checkpoint the state this decision
         branches from. *)
      if arity > 1 then (match on_sched with Some f -> f () | None -> ());
      let j =
        if arity = 1 then 0
        else if Oracle.sched_aware oracle then
          (* Tell schedule-directed oracles which threads this choice picks
             between (forced steps never reach the oracle, which is also
             what a priority scheduler would do with one runnable
             thread). *)
          let tids = Array.init arity (fun k -> threads.(runnable.(k)).tid) in
          Oracle.choose ~kind:(Oracle.Sched tids)
            ~dkind:(Decision.Sched (-1)) oracle ~arity
        else Oracle.choose ~dkind:(Decision.Sched (-1)) oracle ~arity
      in
      let th = threads.(runnable.(j)) in
      if arity > 1 then Oracle.annotate_sched oracle th.tid;
      if reduction <> RNone && List.mem_assq th.tid m.sleep then Pruned
      else begin
        if reduction <> RNone then begin
          (* The DPOR search installs the sleep sets at branch points
             ({!set_sleep}); the machine wakes sleepers on dependent steps
             and logs every step for the dependency analysis.  A run
             that schedules a sleeper stops above with [Pruned]: its
             subtree only commutes independent steps of one already
             explored. *)
          let fp = footprint m th in
          m.sleep <- List.filter (fun (_, fu) -> independent fu fp) m.sleep;
          log_step m th.tid fp
        end;
        step_thread m th oracle;
        (match on_step with Some f -> f () | None -> ());
        loop ()
      end
    end
  in
  try loop () with
  | Memory.Error e -> Fault (Format.asprintf "%a" Memory.pp_error e)
  | Prog.Out_of_fuel what -> Blocked ("out of fuel: " ^ what)
  | Invalid_argument s | Failure s -> Fault ("program error: " ^ s)

(* -- snapshot / restore ------------------------------------------------------

   A machine snapshot is a value-copy of every mutable field: memory and
   registry delegate to their own snapshot layers (persistent maps, O(#locs
   + #graphs) pointers), thread records are copied field-wise (programs are
   free-monad values, immutable by construction), and the sleep set /
   deadline of a concurrent phase in flight ride along so a restored run
   can resume mid-phase with [run ~resume:true].

   Taken between machine steps, the shared message refs and event records
   behind the persistent maps are immutable (commit patching happens inside
   the step that creates a message), so sharing them is sound.  [restore]
   mutates the machine, its histories, graphs and thread records in place:
   every handle a scenario captured at build time stays valid.

   The snapshot and thread_snap types are declared next to {!t} (the
   machine caches its last snapshot).  A machine step changes at most one
   thread, so [snapshot] reuses the cached snapshot's per-thread records
   whenever a thread's fields are unchanged — physical equality, so a
   stale cache only costs allocations, never correctness. *)

let thread_snaps m =
  let fresh th =
    { ts_prog = th.prog; ts_tv = th.tv; ts_finished = th.finished }
  in
  match m.snap_cache with
  | Some p when Array.length p.s_threads = Array.length m.threads ->
      Array.mapi
        (fun i th ->
          let ts = p.s_threads.(i) in
          if
            ts.ts_prog == th.prog && ts.ts_tv == th.tv
            && ts.ts_finished == th.finished
          then ts
          else fresh th)
        m.threads
  | _ -> Array.map fresh m.threads

let snapshot m =
  let s =
    {
      s_mem = Memory.snapshot m.mem;
      s_reg = Registry.snapshot m.reg;
      s_setup_tv = m.setup_tv;
      s_threads = thread_snaps m;
      s_step = m.step;
      s_trace = m.trace;
      s_sc_view = m.sc_view;
      s_sc_lview = m.sc_lview;
      s_accesses = m.accesses;
      s_next_aid = m.next_aid;
      s_sleep = m.sleep;
      s_dpor_len = dpor_depth m;
      s_run_deadline = m.run_deadline;
    }
  in
  m.snap_cache <- Some s;
  s

let restore m s =
  Memory.restore m.mem s.s_mem;
  Registry.restore m.reg s.s_reg;
  m.setup_tv <- s.s_setup_tv;
  if Array.length m.threads = Array.length s.s_threads then
    Array.iteri
      (fun i ts ->
        let th = m.threads.(i) in
        th.prog <- ts.ts_prog;
        th.tv <- ts.ts_tv;
        th.finished <- ts.ts_finished)
      s.s_threads
  else
    m.threads <-
      Array.mapi
        (fun i ts ->
          { tid = i; prog = ts.ts_prog; tv = ts.ts_tv; finished = ts.ts_finished })
        s.s_threads;
  m.step <- s.s_step;
  m.trace <- s.s_trace;
  m.sc_view <- s.s_sc_view;
  m.sc_lview <- s.s_sc_lview;
  m.accesses <- s.s_accesses;
  m.next_aid <- s.s_next_aid;
  m.sleep <- s.s_sleep;
  truncate_log m s.s_dpor_len;
  m.run_deadline <- s.s_run_deadline;
  m.snap_cache <- Some s

(* Join all thread views into the setup view (the parent joining children),
   so a finale prog can read results without racing. *)
let join_views m =
  Array.iter (fun th -> m.setup_tv <- Tview.join m.setup_tv th.tv) m.threads

let finale m prog =
  join_views m;
  solo m prog
