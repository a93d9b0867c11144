open Compass_rmc
open Compass_machine
module Fz = Compass_fuzz

(* The typed decision trace: the versioned line format must round-trip
   every kind/arity/rf combination; the legacy v1 format (plain
   space-separated choice ints) must keep loading — and a legacy witness
   script must replay to the byte-identical outcome as its typed form;
   and every clamped-replay entry point (replay, prefix oracle, shrink)
   must clamp out-of-range choices instead of raising, and report it. *)

(* -- serialization round-trip ------------------------------------------------- *)

(* Sites are print-only metadata and deliberately not serialized, so the
   generator leaves them empty; everything else must survive the trip. *)
let random_decision st =
  let loc () = Loc.make ~base:(Random.State.int st 7) ~off:(Random.State.int st 4) in
  let kind =
    match Random.State.int st 6 with
    | 0 -> Decision.Sched (Random.State.int st 5)
    | 1 -> Decision.Read (loc ())
    | 2 -> Decision.Await (loc ())
    | 3 -> Decision.Cas (loc ())
    | 4 -> Decision.Ts (loc ())
    | _ -> Decision.Opaque
  in
  let arity = Random.State.int st 6 in
  let choice = if arity = 0 then Random.State.int st 8 else Random.State.int st arity in
  let d = Decision.make ~kind ~choice ~arity () in
  if Random.State.bool st then
    Decision.set_rf d ~ts:(Random.State.int st 40)
      ~wtid:(Random.State.int st 5 - 1);
  d

let test_line_roundtrip () =
  let st = Random.State.make [| 0xdec1 |] in
  for i = 0 to 199 do
    let tr = Array.init (Random.State.int st 12) (fun _ -> random_decision st) in
    let line = Decision.to_line tr in
    match Decision.of_line line with
    | None -> Alcotest.failf "roundtrip %d: %S did not parse" i line
    | Some tr' ->
        if not (Decision.equal_trace tr tr') then
          Alcotest.failf "roundtrip %d: %S re-read differently" i line;
        (* serialization is canonical: a second trip is byte-identical *)
        Alcotest.(check string)
          (Printf.sprintf "roundtrip %d: canonical line" i)
          line
          (Decision.to_line tr')
  done

(* Pinned v2 literal: the on-disk grammar is a compatibility surface, so
   a representative line is asserted token by token. *)
let test_pinned_v2_line () =
  let line = "v2 s0:1/3 r3:2/4@7.1 c5:0/2 t6:1/3 w9:0/2 o:5/0 r2:0/3@0.-1" in
  match Decision.of_line line with
  | None -> Alcotest.fail "pinned v2 line did not parse"
  | Some tr ->
      Alcotest.(check int) "pinned v2: length" 7 (Array.length tr);
      Alcotest.(check (array int))
        "pinned v2: choices" [| 1; 2; 0; 1; 0; 5; 0 |] (Decision.choices tr);
      Alcotest.(check (array int))
        "pinned v2: arities" [| 3; 4; 2; 3; 2; 0; 3 |] (Decision.arities tr);
      (match tr.(0).Decision.kind with
      | Decision.Sched 0 -> ()
      | _ -> Alcotest.fail "pinned v2: token 0 is sched T0");
      (match tr.(1).Decision.kind with
      | Decision.Read l -> Alcotest.(check int) "read loc key" 3 (Loc.key l)
      | _ -> Alcotest.fail "pinned v2: token 1 is a read");
      (match tr.(1).Decision.rf with
      | Some { Decision.rf_ts; rf_wtid } ->
          Alcotest.(check int) "rf ts" 7 rf_ts;
          Alcotest.(check int) "rf wtid" 1 rf_wtid
      | None -> Alcotest.fail "pinned v2: token 1 carries provenance");
      (match tr.(6).Decision.rf with
      | Some { Decision.rf_wtid; _ } ->
          Alcotest.(check int) "init rf wtid" (-1) rf_wtid
      | None -> Alcotest.fail "pinned v2: token 6 carries init provenance");
      Alcotest.(check string) "pinned v2: re-serializes identically" line
        (Decision.to_line tr)

let test_pinned_v1_line () =
  (match Decision.of_line "3 1 0 2" with
  | Some tr ->
      Alcotest.(check (array int)) "v1: choices" [| 3; 1; 0; 2 |]
        (Decision.choices tr);
      Alcotest.(check (array int)) "v1: arities all unknown" [| 0; 0; 0; 0 |]
        (Decision.arities tr);
      Array.iter
        (fun (d : Decision.t) ->
          match d.Decision.kind with
          | Decision.Opaque -> ()
          | _ -> Alcotest.fail "v1 entries lift as opaque")
        tr
  | None -> Alcotest.fail "v1 line did not parse");
  (match Decision.of_line "" with
  | Some [||] -> ()
  | _ -> Alcotest.fail "empty line is the empty trace");
  List.iter
    (fun line ->
      match Decision.of_line line with
      | None -> ()
      | Some _ -> Alcotest.failf "malformed line %S must be rejected" line)
    [ "1 two 3"; "-1 0 0"; "0 -2"; "v2 s0:-1/2"; "v2 q:1/2" ]

(* -- legacy corpus loading ---------------------------------------------------- *)

let test_legacy_corpus_load () =
  let file = Filename.temp_file "compass-corpus" ".txt" in
  let oc = open_out file in
  (* a pre-decision-trace corpus: v1 int lines, one junk line, and a
     modern v2 line mixed in (corpora may be partially re-saved) *)
  output_string oc "1 0 2\n0 3\nnot a script\nv2 s1:2/3 o:0/0\n";
  close_out oc;
  let c = Fz.Corpus.load file in
  Sys.remove file;
  Alcotest.(check int) "junk skipped, three entries" 3 (Fz.Corpus.size c);
  let got =
    List.map (fun tr -> Array.to_list (Decision.choices tr)) (Fz.Corpus.to_list c)
  in
  Alcotest.(check (list (list int)))
    "choices preserved in order"
    [ [ 1; 0; 2 ]; [ 0; 3 ]; [ 2; 0 ] ]
    got;
  (* save/reload is the identity on the typed entries *)
  let file2 = Filename.temp_file "compass-corpus" ".txt" in
  Fz.Corpus.save c file2;
  let c2 = Fz.Corpus.load file2 in
  Sys.remove file2;
  Alcotest.(check bool) "save/load round-trips" true
    (List.for_all2 Decision.equal_trace (Fz.Corpus.to_list c)
       (Fz.Corpus.to_list c2))

(* -- legacy witness scripts replay byte-identically --------------------------- *)

let outcome_str o = Format.asprintf "%a" Machine.pp_outcome o

let verdict_str = function
  | Explore.Pass -> "pass"
  | Explore.Discard m -> "discard: " ^ m
  | Explore.Violation m -> "violation: " ^ m

let test_legacy_witness_replay () =
  (* Find a real violation, then replay it three ways: the typed logged
     trace, its v2 line round-trip, and the stripped v1 int form an old
     witness JSON would carry.  All three must agree byte for byte on
     outcome and verdict, with no clamping. *)
  let r = Explore.dfs (Test_explore.seeded_mp_violation ()) in
  let f =
    match r.Explore.violations with
    | f :: _ -> f
    | [] -> Alcotest.fail "seeded scenario must violate"
  in
  let replays =
    [
      ("typed", f.Explore.trace);
      ( "v2 line",
        match Decision.of_line (Decision.to_line f.Explore.trace) with
        | Some tr -> tr
        | None -> Alcotest.fail "witness trace did not round-trip" );
      ("legacy v1 ints", Decision.of_ints (Explore.failure_script f));
    ]
  in
  let results =
    List.map
      (fun (tag, tr) ->
        let rep =
          Explore.replay ~config:Machine.default_config
            (Test_explore.seeded_mp_violation ()) tr
        in
        Alcotest.(check int) (tag ^ ": no clamping") 0 rep.Explore.r_clamped;
        (tag, outcome_str rep.Explore.r_outcome, verdict_str rep.Explore.r_verdict))
      replays
  in
  match results with
  | (_, o0, v0) :: rest ->
      Alcotest.(check string) "typed replay reproduces the violation" v0
        ("violation: " ^ f.Explore.message);
      List.iter
        (fun (tag, o, v) ->
          Alcotest.(check string) (tag ^ ": outcome identical") o0 o;
          Alcotest.(check string) (tag ^ ": verdict identical") v0 v)
        rest
  | [] -> assert false

(* -- uniform clamping --------------------------------------------------------- *)

let test_clamp_uniformity () =
  let sc () = Test_explore.seeded_mp_violation () in
  let r = Explore.dfs (sc ()) in
  let f =
    match r.Explore.violations with
    | f :: _ -> f
    | [] -> Alcotest.fail "seeded scenario must violate"
  in
  (* replay: an absurd first choice clamps (reported in r_clamped) and
     the run still completes *)
  let head = Array.copy f.Explore.trace in
  head.(0) <- Decision.resolve head.(0) 99;
  let rep = Explore.replay ~config:Machine.default_config (sc ()) head in
  Alcotest.(check bool) "replay clamps out-of-range choices" true
    (rep.Explore.r_clamped > 0);
  (* a wild witness that still reproduces: overwrite a position whose
     original choice was already the last alternative, so clamping 99
     lands back on it — some such position must exist in any script with
     a non-zero choice *)
  let wild =
    let try_at j =
      let w = Array.copy f.Explore.trace in
      w.(j) <- Decision.resolve w.(j) 99;
      let r = Explore.replay ~config:Machine.default_config (sc ()) w in
      if
        r.Explore.r_clamped > 0
        && verdict_str r.Explore.r_verdict = "violation: " ^ f.Explore.message
      then Some w
      else None
    in
    let n = Array.length f.Explore.trace in
    let rec search j = if j >= n then None else
      match try_at j with Some w -> Some w | None -> search (j + 1)
    in
    match search 0 with
    | Some w -> w
    | None -> Alcotest.fail "no clamped mutation reproduces the witness"
  in
  (* the fuzzer's prefix oracle counts its clamps through the same path *)
  let m = Machine.create ~config:Machine.default_config () in
  let _judge = (sc ()).Explore.build m in
  let clamps = ref 0 in
  let oracle =
    Fz.Fuzz.prefix_oracle ~clamps
      (Random.State.make [| 42 |])
      (Decision.of_ints [| 99 |])
  in
  let _ = Machine.run m oracle in
  Alcotest.(check bool) "prefix oracle clamps and reports" true (!clamps > 0);
  (* the shrinker replays candidates clamped: feeding it a wild witness
     still minimizes to a reproducing script, totalling its clamps *)
  let stats, small =
    Fz.Shrink.minimize ~scenario:(sc ()) ~message:f.Explore.message wild
  in
  Alcotest.(check bool) "shrinker accepted a clamped witness" true
    (Fz.Shrink.reproduces ~scenario:(sc ()) ~message:f.Explore.message small);
  Alcotest.(check bool) "shrinker reports clamp total" true (stats.Fz.Shrink.clamped > 0);
  (* the minimized script is strict: no clamps remain *)
  let rep2 = Explore.replay ~config:Machine.default_config (sc ()) small in
  Alcotest.(check int) "minimized script replays strictly" 0
    rep2.Explore.r_clamped

let suite =
  [
    Alcotest.test_case "v2 line round-trips (random traces)" `Quick
      test_line_roundtrip;
    Alcotest.test_case "pinned v2 fixture parses and re-serializes" `Quick
      test_pinned_v2_line;
    Alcotest.test_case "pinned v1 fixture: ints lift as opaque" `Quick
      test_pinned_v1_line;
    Alcotest.test_case "legacy corpus loads (v1 + v2 + junk)" `Quick
      test_legacy_corpus_load;
    Alcotest.test_case "legacy witness replays byte-identically" `Quick
      test_legacy_witness_replay;
    Alcotest.test_case "clamping is uniform and reported" `Quick
      test_clamp_uniformity;
  ]
