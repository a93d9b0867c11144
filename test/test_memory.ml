open Compass_rmc
open Helpers

(* Histories, timestamp policies, and the global store with race
   detection. *)

let write l ~ts ~value =
  Msg.make ~loc:l ~ts ~value ~view:View.bot ~lview:Lview.empty ~wtid:0

let test_history_basics () =
  let l = loc ~base:9 ~off:0 in
  let h = History.create ~loc:l ~init_value:(vi 0) () in
  Alcotest.(check int) "init ts" Timestamp.init (History.max_ts h);
  ignore (History.add h (write l ~ts:3 ~value:(vi 1)));
  let r = History.add h (write l ~ts:7 ~value:(vi 2)) in
  Alcotest.(check int) "max ts" 7 (History.max_ts h);
  Alcotest.(check int) "length" 3 (History.length h);
  Alcotest.(check bool) "add returns the stored ref" true
    (History.latest h == r);
  Alcotest.(check value) "latest value" (vi 2) !(History.latest h).Msg.value;
  Alcotest.(check int) "readable from 3" 2 (History.readable_arity h ~from:3);
  Alcotest.(check value) "readable ascending" (vi 1)
    !(History.readable_nth h ~from:3 0).Msg.value

let test_fresh_ts_append () =
  let l = loc ~base:9 ~off:1 in
  let h = History.create ~loc:l ~init_value:(vi 0) () in
  Alcotest.(check (list int)) "append" [ 1 ] (History.fresh_ts h ~policy:`Append ~above:0);
  ignore (History.add h (write l ~ts:1 ~value:(vi 1)));
  Alcotest.(check (list int)) "append after" [ 2 ]
    (History.fresh_ts h ~policy:`Append ~above:0)

let test_fresh_ts_gap () =
  let l = loc ~base:9 ~off:2 in
  let h = History.create ~loc:l ~init_value:(vi 0) () in
  let stride = Timestamp.stride in
  ignore (History.add h (write l ~ts:stride ~value:(vi 1)));
  let choices = History.fresh_ts h ~policy:`Gap ~above:0 in
  (* A midpoint between init and the stride write, plus past-the-end. *)
  Alcotest.(check bool) "gap has midpoint" true (List.mem (stride / 2) choices);
  Alcotest.(check bool) "gap has append" true
    (List.mem (stride + stride) choices);
  (* With [above] past the first write, only later slots qualify. *)
  let choices = History.fresh_ts h ~policy:`Gap ~above:stride in
  Alcotest.(check bool) "above prunes midpoints" true
    (List.for_all (fun t -> t > stride) choices)

(* -- histories against a map reference -------------------------------------

   A random walk of [`Append] and [`Gap] writes (each picking one of the
   [fresh_ts] candidates above a random write), checkpoints, and restores
   to checkpoints along the walk, run both on a history and on a
   persistent [Map.Make(Int)] from timestamp to value — the reference,
   whose past states are just old values.  After every operation the two
   agree on the contents and on the readable messages from every view,
   and a write's returned ref is the one stored. *)

module Tsmap = Map.Make (Int)

type walk_op =
  | Write of [ `Append | `Gap ] * int * int
      (** policy, pick of [above], pick of the candidate *)
  | Checkpoint
  | Restore of int  (** pick among the live checkpoints *)

let pp_walk_op = function
  | Write (p, a, c) ->
      Printf.sprintf "Write(%s,%d,%d)"
        (match p with `Append -> "append" | `Gap -> "gap")
        a c
  | Checkpoint -> "Checkpoint"
  | Restore k -> Printf.sprintf "Restore %d" k

let arb_walk =
  let open QCheck.Gen in
  let write =
    map3
      (fun gap a c -> Write ((if gap then `Gap else `Append), a, c))
      bool nat nat
  in
  let op =
    frequency
      [ (5, write); (2, return Checkpoint); (2, map (fun k -> Restore k) nat) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_walk_op ops))
    (list_size (int_range 1 40) op)

let agrees h model =
  let contents =
    List.map (fun m -> (!m.Msg.ts, !m.Msg.value)) (History.to_list h)
  in
  let tss = List.map fst (Tsmap.bindings model) in
  let readable_from from =
    List.init (History.readable_arity h ~from) (fun i ->
        !(History.readable_nth h ~from i).Msg.ts)
    = List.filter (fun ts -> ts >= from) tss
  in
  contents = Tsmap.bindings model
  && List.for_all (fun ts -> readable_from ts && readable_from (ts + 1)) tss

let prop_history_vs_map =
  QCheck.Test.make ~name:"history == map reference (append/gap, restores)"
    ~count:500 arb_walk (fun ops ->
      let l = loc ~base:9 ~off:4 in
      let h = History.create ~loc:l ~init_value:(vi 0) () in
      let model = ref (Tsmap.singleton Timestamp.init (vi 0)) in
      (* Newest first; the root is never dropped. *)
      let checkpoints = ref [ (History.length h, !model) ] in
      let step = function
        | Write (policy, a, c) ->
            let tss = List.map fst (Tsmap.bindings !model) in
            let above = List.nth tss (a mod List.length tss) in
            let cands = History.fresh_ts h ~policy ~above in
            let ts = List.nth cands (c mod List.length cands) in
            let value = vi (Tsmap.cardinal !model) in
            let r = History.add h (write l ~ts ~value) in
            model := Tsmap.add ts value !model;
            History.readable_nth h ~from:ts 0 == r
        | Checkpoint ->
            checkpoints := (History.length h, !model) :: !checkpoints;
            true
        | Restore k ->
            let keep = k mod List.length !checkpoints in
            checkpoints := List.filteri (fun i _ -> i >= keep) !checkpoints;
            let len, m = List.hd !checkpoints in
            History.truncate h len;
            model := m;
            true
      in
      List.for_all (fun op -> step op && agrees h !model) ops)

let test_midpoint () =
  Alcotest.(check (option int)) "adjacent has none" None (Timestamp.midpoint 3 4);
  Alcotest.(check (option int)) "gap of two" (Some 4) (Timestamp.midpoint 3 5)

let test_memory_alloc_read () =
  let mem = Memory.create () in
  let base = Memory.alloc mem ~name:"blk" ~size:3 ~init_value:Value.Null in
  Alcotest.(check value) "init value" Value.Null
    !(Memory.latest mem (Loc.shift base 2)).Msg.value;
  Alcotest.(check int) "read choices from init" 1
    (Memory.read_arity mem base ~from:Timestamp.init);
  Alcotest.check_raises "unallocated"
    (Memory.Error (Memory.Unallocated (Loc.shift base 3)))
    (fun () -> ignore (Memory.latest mem (Loc.shift base 3)))

let test_memory_race_detection () =
  let mem = Memory.create () in
  let base = Memory.alloc mem ~name:"blk" ~size:1 ~init_value:(vi 0) in
  (* A thread that never observed the location races on na access. *)
  Alcotest.check_raises "na read unobserved"
    (Memory.Error (Memory.Race { loc = base; tid = 5; kind = "na-read" }))
    (fun () -> ignore (Memory.na_read mem base ~tv:Tview.init ~tid:5));
  (* After observing the init write, the na read succeeds. *)
  let tv =
    Tview.read Tview.init !(Memory.latest mem base) Mode.Acq
  in
  Alcotest.(check value) "na read after observation" (vi 0)
    !(Memory.na_read mem base ~tv ~tid:5).Msg.value

let test_memory_uninitialised () =
  let mem = Memory.create () in
  let base = Memory.alloc mem ~name:"blk" ~size:1 ~init_value:Value.Poison in
  let tv = Tview.read Tview.init !(Memory.latest mem base) Mode.Acq in
  Alcotest.check_raises "poison read"
    (Memory.Error (Memory.Uninitialised { loc = base; tid = 1 }))
    (fun () -> ignore (Memory.na_read mem base ~tv ~tid:1))

let test_memory_stale_na_write_races () =
  let mem = Memory.create () in
  let base = Memory.alloc mem ~name:"blk" ~size:1 ~init_value:(vi 0) in
  let tv = Tview.read Tview.init !(Memory.latest mem base) Mode.Acq in
  (* Another write lands that [tv] has not observed. *)
  ignore (Memory.add_msg mem (write base ~ts:4 ~value:(vi 9)));
  Alcotest.check_raises "na write behind mo races"
    (Memory.Error (Memory.Race { loc = base; tid = 1; kind = "na-write" }))
    (fun () -> ignore (Memory.na_check mem base ~tv ~tid:1 ~kind:"na-write"))

let suite =
  [
    Alcotest.test_case "history basics" `Quick test_history_basics;
    Alcotest.test_case "fresh ts (append)" `Quick test_fresh_ts_append;
    Alcotest.test_case "fresh ts (gap)" `Quick test_fresh_ts_gap;
    qtest prop_history_vs_map;
    Alcotest.test_case "timestamp midpoint" `Quick test_midpoint;
    Alcotest.test_case "alloc and read choices" `Quick test_memory_alloc_read;
    Alcotest.test_case "race detection (na vs unobserved)" `Quick
      test_memory_race_detection;
    Alcotest.test_case "uninitialised read" `Quick test_memory_uninitialised;
    Alcotest.test_case "na write behind mo races" `Quick
      test_memory_stale_na_write_races;
  ]
