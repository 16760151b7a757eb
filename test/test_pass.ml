(* Tests for the pass manager (timing instrumentation used by §5.2) and
   the dialect registry. *)

open Ir
module W = Workloads.Polybench

let test_manager_runs_in_order () =
  let log = ref [] in
  let mk name = Pass.make ~name (fun _ -> log := name :: !log) in
  let pm = Pass.create_manager () in
  Pass.add_all pm [ mk "a"; mk "b"; mk "c" ];
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  Pass.run pm m;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_manager_records_timings () =
  let pm = Pass.create_manager () in
  Pass.add_all pm
    [
      Transforms.Canonicalize.pass;
      Transforms.Lower_linalg.pass;
      Transforms.Lower_affine.pass;
      Transforms.Dce.pass;
    ];
  let m = Met.Emit_affine.translate (W.gemm ~ni:8 ~nj:8 ~nk:8 ()) in
  Pass.run pm m;
  let ts = Pass.timings pm in
  Alcotest.(check int) "one timing per pass" 4 (List.length ts);
  Alcotest.(check (list string)) "names"
    [ "canonicalize"; "lower-linalg-to-affine"; "lower-affine-to-scf"; "dce" ]
    (List.map (fun t -> t.Pass.pass_name) ts);
  Alcotest.(check bool) "total accumulates" true (Pass.total_seconds pm >= 0.);
  Pass.clear_timings pm;
  Alcotest.(check int) "cleared" 0 (List.length (Pass.timings pm))

let test_manager_verify_each_catches_breakage () =
  let breaker =
    Pass.make ~name:"breaker" (fun root ->
        (* Introduce a use of an undefined value. *)
        let f = Option.get (Core.find_func root "mm") in
        let loop = List.hd (Affine.Loops.top_level_loops f) in
        let iv = Affine.Affine_ops.for_iv loop in
        let b = Builder.at_end (Core.func_entry f) in
        ignore (Affine.Affine_ops.apply b (Affine_map.identity 1) [ iv ]))
  in
  let pm = Pass.create_manager ~verify_each:true () in
  Pass.add pm breaker;
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  match Support.Diag.wrap (fun () -> Pass.run pm m) with
  | Ok () -> Alcotest.fail "expected verification failure naming the pass"
  | Error msg ->
      Alcotest.(check bool) "names the pass" true
        (Astring_contains.contains msg "breaker")

let test_full_pipeline_as_passes () =
  (* The whole raising+lowering pipeline expressed through the manager. *)
  let reference = Met.Emit_affine.translate (W.gemm ~ni:8 ~nj:8 ~nk:8 ()) in
  let m = Met.Emit_affine.translate (W.gemm ~ni:8 ~nj:8 ~nk:8 ()) in
  let pm = Pass.create_manager ~verify_each:true () in
  Pass.add_all pm
    [
      Transforms.Canonicalize.pass;
      Pass.make ~name:"raise-to-linalg" (fun root ->
          ignore (Transforms.Tactics.raise_to_linalg root));
      Transforms.Raise_chain.pass;
      Transforms.To_blas.pass;
      Transforms.Lower_linalg.pass;
      Transforms.Lower_affine.pass;
      Transforms.Dce.pass;
    ];
  Pass.run pm m;
  Alcotest.(check bool) "equivalent after 7-pass pipeline" true
    (Interp.Eval.equivalent reference m "gemm" ~seed:83)

let test_failing_pass_keeps_timing () =
  (* A pass raising mid-run must still contribute its timing entry. *)
  let pm = Pass.create_manager () in
  Pass.add_all pm
    [
      Pass.make ~name:"ok" (fun _ -> ());
      Pass.make ~name:"boom" (fun _ -> Support.Diag.errorf "kaboom");
      Pass.make ~name:"never" (fun _ -> ());
    ];
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  (match Support.Diag.wrap (fun () -> Pass.run pm m) with
  | Ok () -> Alcotest.fail "expected the failing pass to raise"
  | Error _ -> ());
  Alcotest.(check (list string)) "partial report keeps the failing pass"
    [ "ok"; "boom" ]
    (List.map (fun t -> t.Pass.pass_name) (Pass.timings pm))

let test_nested_pipeline_timing () =
  let pm = Pass.create_manager () in
  Pass.add pm Transforms.Canonicalize.pass;
  Pass.add_pipeline pm "lowering"
    [ Transforms.Lower_linalg.pass; Transforms.Lower_affine.pass ];
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  Pass.run pm m;
  let ts = Pass.timings pm in
  Alcotest.(check (list string)) "qualified names, aggregate after children"
    [
      "canonicalize";
      "lowering/lower-linalg-to-affine";
      "lowering/lower-affine-to-scf";
      "lowering";
    ]
    (List.map (fun t -> t.Pass.pass_name) ts);
  let depth name =
    (List.find (fun t -> t.Pass.pass_name = name) ts).Pass.depth
  in
  Alcotest.(check int) "children at depth 1" 1
    (depth "lowering/lower-affine-to-scf");
  Alcotest.(check int) "aggregate at depth 0" 0 (depth "lowering");
  let seconds name =
    (List.find (fun t -> t.Pass.pass_name = name) ts).Pass.seconds
  in
  Alcotest.(check bool) "aggregate covers its children" true
    (seconds "lowering"
    >= seconds "lowering/lower-linalg-to-affine"
       +. seconds "lowering/lower-affine-to-scf");
  (* total sums only depth-0 entries: no double counting. *)
  Alcotest.(check bool) "total excludes nested entries" true
    (Pass.total_seconds pm
    <= seconds "canonicalize" +. seconds "lowering" +. 1e-9)

let test_mlt_linalg_pipeline_stats () =
  (* The Mlt_linalg evaluation pipeline, instrumented end to end. *)
  let pm = Pass.create_manager () in
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  ignore (Mlt.Pipeline.prepare_module ~pm Mlt.Pipeline.Mlt_linalg m);
  let ts = Pass.timings pm in
  Alcotest.(check (list string)) "pipeline passes"
    [
      "transform.canonicalize";
      "transform.raise[linalg]";
      "transform.lower_linalg[32]";
    ]
    (List.map (fun t -> t.Pass.pass_name) ts);
  let entry name = List.find (fun t -> t.Pass.pass_name = name) ts in
  let raise_t = entry "transform.raise[linalg]" in
  Alcotest.(check bool) "raising rewrote at least one site" true
    (raise_t.Pass.rewrites >= 1);
  Alcotest.(check bool) "attempts >= rewrites" true
    (raise_t.Pass.match_attempts >= raise_t.Pass.rewrites);
  Alcotest.(check bool) "raising shrinks the op count" true
    (raise_t.Pass.ops_after < raise_t.Pass.ops_before);
  let lower_t = entry "transform.lower_linalg[32]" in
  Alcotest.(check bool) "lowering re-expands the op count" true
    (lower_t.Pass.ops_after > lower_t.Pass.ops_before)

let test_ir_snapshots () =
  let snaps = ref [] in
  let pm =
    Pass.create_manager ~snapshot:Pass.After_all
      ~ir_sink:(fun ~pass_name ~ir -> snaps := (pass_name, ir) :: !snaps)
      ()
  in
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  ignore (Mlt.Pipeline.prepare_module ~pm Mlt.Pipeline.Mlt_linalg m);
  let snaps = List.rev !snaps in
  Alcotest.(check int) "one snapshot per pass" 3 (List.length snaps);
  let after_raise = List.assoc "transform.raise[linalg]" snaps in
  Alcotest.(check bool) "snapshot shows the raised op" true
    (Astring_contains.contains after_raise "linalg.matmul");
  let after_lower = List.assoc "transform.lower_linalg[32]" snaps in
  Alcotest.(check bool) "snapshot shows the lowered loops" true
    (Astring_contains.contains after_lower "affine.for")

let test_reports_and_summaries () =
  let pm = Pass.create_manager () in
  Pass.add_all pm
    [ Transforms.Canonicalize.pass; Transforms.Dce.pass ];
  let run_once () =
    Pass.run pm (Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()))
  in
  run_once ();
  run_once ();
  let json = Pass.report_json pm in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true
        (Astring_contains.contains json needle))
    [
      "\"total_seconds\":"; "\"passes\":["; "\"name\":\"canonicalize\"";
      "\"ops_before\":"; "\"ops_after\":"; "\"match_attempts\":";
      "\"rewrites\":"; "\"depth\":0";
    ];
  let table = Pass.report_table pm in
  Alcotest.(check bool) "table lists dce" true
    (Astring_contains.contains table "dce");
  (* Two runs aggregate into one row per pass. *)
  let summaries = Pass.summarize pm in
  Alcotest.(check (list string)) "summary order"
    [ "canonicalize"; "dce" ]
    (List.map (fun s -> s.Pass.s_name) summaries);
  List.iter
    (fun s -> Alcotest.(check int) "two runs each" 2 s.Pass.s_runs)
    summaries;
  Alcotest.(check bool) "summary json has runs" true
    (Astring_contains.contains (Pass.summary_json pm) "\"runs\":2")

let test_summary_merges_pattern_stats () =
  (* Two instrumented runs of the raising pass: [summarize] must fold the
     per-run [patterns] arrays into one per-pattern row with summed
     counters, and [summary_json] must render that array. *)
  let pm = Pass.create_manager () in
  Pass.add pm (Transforms.Tactics.raise_to_linalg_pass ());
  let run_once () =
    Pass.run pm (Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()))
  in
  run_once ();
  run_once ();
  (* Each run recorded its own per-pattern deltas... *)
  let per_run =
    List.map
      (fun t ->
        List.find
          (fun (p : Rewriter.pattern_stat) -> p.ps_name = "GEMM")
          t.Pass.pattern_stats)
      (Pass.timings pm)
  in
  Alcotest.(check int) "two timing entries" 2 (List.length per_run);
  List.iter
    (fun (p : Rewriter.pattern_stat) ->
      Alcotest.(check int) "one hit per run" 1 p.ps_hits)
    per_run;
  (* ...and the summary folds them. *)
  (match Pass.summarize pm with
  | [ s ] ->
      Alcotest.(check string) "one row" "raise-affine-to-linalg" s.Pass.s_name;
      Alcotest.(check int) "two runs" 2 s.Pass.s_runs;
      let gemm =
        List.find
          (fun (p : Rewriter.pattern_stat) -> p.ps_name = "GEMM")
          s.Pass.s_patterns
      in
      Alcotest.(check int) "hits summed across runs" 2 gemm.ps_hits;
      Alcotest.(check bool) "attempts summed too" true (gemm.ps_attempts >= 2);
      Alcotest.(check int) "activations summed" 2 gemm.ps_activations;
      let fill =
        List.find
          (fun (p : Rewriter.pattern_stat) -> p.ps_name = "raise-fill")
          s.Pass.s_patterns
      in
      Alcotest.(check int) "other participants merged as well" 2 fill.ps_hits
  | ss -> Alcotest.failf "expected one summary row, got %d" (List.length ss));
  let json = Pass.summary_json pm in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary json contains %s" needle)
        true
        (Astring_contains.contains json needle))
    [ "\"patterns\":["; "\"name\":\"GEMM\""; "\"hits\":2" ]

(* The batch cache stores summaries as [summaries_json_value] text and
   serves them through [summary_of_json]: the pair must be lossless. *)
let test_summary_json_roundtrip () =
  let module J = Support.Json in
  let pm = Pass.create_manager () in
  Pass.add_all pm
    [ Transforms.Canonicalize.pass; Transforms.Tactics.raise_to_linalg_pass () ];
  for _ = 1 to 2 do
    Pass.run pm (Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()))
  done;
  let summaries = Pass.summarize pm in
  let decoded =
    match J.parse (J.to_string (Pass.summaries_json_value summaries)) with
    | Ok (J.List rows) -> List.map Pass.summary_of_json rows
    | _ -> Alcotest.fail "summaries_json_value is not a JSON array"
  in
  Alcotest.(check bool) "decode (encode s) = s, seconds and GC included" true
    (decoded = summaries);
  (* Payloads written before GC profiling carry no "gc" member. *)
  let without_gc =
    match Pass.summaries_json_value summaries with
    | J.List (J.Obj fields :: _) ->
        J.Obj (List.filter (fun (k, _) -> k <> "gc") fields)
    | _ -> Alcotest.fail "expected summary rows"
  in
  Alcotest.(check bool) "missing gc reads as zero" true
    ((Pass.summary_of_json without_gc).Pass.s_gc = Pass.zero_gc);
  match Pass.summary_of_json (J.Obj [ ("name", J.Str "x") ]) with
  | _ -> Alcotest.fail "a truncated row decoded"
  | exception Invalid_argument _ -> ()

let test_diag_error_names_pass_and_loc () =
  (* A Diag.Error raised mid-pass is re-reported with the failing pass's
     qualified name; a location attached by the pass body survives. *)
  let loc = Support.Loc.make ~file:"k.c" ~line:7 ~col:2 in
  let pm = Pass.create_manager () in
  Pass.add_pipeline pm "pipe"
    [
      Pass.make ~name:"ok" (fun _ -> ());
      Pass.make ~name:"boom" (fun _ ->
          raise (Support.Diag.Error (loc, "kaboom")));
    ];
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  match Support.Diag.wrap (fun () -> Pass.run pm m) with
  | Ok () -> Alcotest.fail "expected the pass to raise"
  | Error msg ->
      Alcotest.(check bool) "qualified pass name" true
        (Astring_contains.contains msg "pass 'pipe/boom'");
      Alcotest.(check bool) "original message kept" true
        (Astring_contains.contains msg "kaboom");
      Alcotest.(check bool) "location kept" true
        (Astring_contains.contains msg "k.c:7:2")

let test_dialect_registry () =
  Std_dialect.Arith.register ();
  Std_dialect.Scf.register ();
  Affine.Affine_ops.register ();
  Linalg.Linalg_ops.register ();
  Blas.Blas_ops.register ();
  let ops = Dialect.registered_ops () in
  List.iter
    (fun name ->
      if not (List.mem name ops) then Alcotest.failf "%s not registered" name)
    [
      "arith.addf"; "affine.for"; "affine.matmul"; "scf.for";
      "linalg.matmul"; "linalg.contract"; "blas.sgemm"; "memref.load";
    ];
  Alcotest.(check bool) "addf commutative" true
    (Dialect.is_commutative
       (Core.create_op ~operands:[] ~result_types:[] "arith.addf"));
  Alcotest.(check bool) "subf not commutative" false
    (Dialect.is_commutative
       (Core.create_op ~operands:[] ~result_types:[] "arith.subf"));
  Alcotest.(check string) "dialect_of" "affine" (Dialect.dialect_of "affine.for")

let suite =
  [
    Alcotest.test_case "manager runs in order" `Quick
      test_manager_runs_in_order;
    Alcotest.test_case "manager records timings" `Quick
      test_manager_records_timings;
    Alcotest.test_case "verify-each names the breaking pass" `Quick
      test_manager_verify_each_catches_breakage;
    Alcotest.test_case "full pipeline through the manager" `Quick
      test_full_pipeline_as_passes;
    Alcotest.test_case "failing pass keeps its timing entry" `Quick
      test_failing_pass_keeps_timing;
    Alcotest.test_case "nested pipeline timing" `Quick
      test_nested_pipeline_timing;
    Alcotest.test_case "mlt-linalg pipeline statistics" `Quick
      test_mlt_linalg_pipeline_stats;
    Alcotest.test_case "IR snapshots after each pass" `Quick
      test_ir_snapshots;
    Alcotest.test_case "JSON/table reports and aggregation" `Quick
      test_reports_and_summaries;
    Alcotest.test_case "dialect registry" `Quick test_dialect_registry;
    Alcotest.test_case "summary JSON round-trips" `Quick
      test_summary_json_roundtrip;
  ]
