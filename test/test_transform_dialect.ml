(* The transform dialect: script construction, printer/parser
   round-trips (QCheck over random valid scripts), interpretation
   against payloads, byte-identity of every pipeline configuration's
   script elaboration with the legacy hard-coded pass lists, per-step
   inapplicability remarks, and verifier rejections. *)

open Ir
module T = Transforms
module Script = Transform.Script
module W = Workloads.Polybench
module P = Mlt.Pipeline

let () = P.register_dialects ()

(* ---- random scripts round-trip through the parser ---------------------- *)

let gen_step =
  let open QCheck.Gen in
  oneof
    [
      map (fun sizes -> Script.Tile sizes)
        (list_size (int_range 1 3) (int_range 1 64));
      return Script.Interchange;
      map (fun h -> Script.Fuse h)
        (oneofl
           [ T.Loop_fuse.No_fuse; T.Loop_fuse.Smart_fuse; T.Loop_fuse.Max_fuse ]);
      map (fun f -> Script.Unroll f) (int_range 2 16);
      return Script.Lower_affine;
      map (fun t -> Script.Lower_linalg t)
        (oneof [ return None; map Option.some (int_range 2 64) ]);
      map3
        (fun mc nc kc -> Script.Blis_schedule { T.Blis_schedule.mc; nc; kc })
        (int_range 1 256) (int_range 1 512) (int_range 1 256);
      map (fun s -> Script.Raise s)
        (oneofl [ "linalg"; "affine-matmul"; "affine" ]);
      map (fun b -> Script.Canonicalize b) bool;
      return Script.Dce;
      return Script.Reorder_chains;
      return Script.To_blas;
    ]

let arb_steps =
  QCheck.make
    ~print:(fun steps ->
      String.concat "; " (List.map Script.step_name steps))
    QCheck.Gen.(list_size (int_range 0 8) gen_step)

let prop_roundtrip =
  QCheck.Test.make ~name:"random scripts: print/parse round-trip" ~count:200
    arb_steps (fun steps ->
      let text = Script.print (Script.of_steps steps) in
      let steps' = Script.parse_steps ~file:"roundtrip.mlir" text in
      List.length steps = List.length steps'
      && List.for_all2 Script.equal_step steps steps'
      (* And printing is a fixpoint: parse . print . parse = parse. *)
      && String.equal text (Script.print (Script.of_steps steps')))

(* ---- every config's script reproduces the legacy pass list ------------- *)

(* The hard-coded pass lists Mlt.Pipeline shipped before the transform
   dialect, inlined verbatim: the redesign's contract is that each
   configuration's script elaboration produces byte-identical IR. *)
let legacy_passes = function
  | P.Clang_O3 -> []
  | P.Pluto_default -> [ T.Pluto.pass T.Pluto.default_config ]
  | P.Pluto_best -> Alcotest.fail "pluto-best has no pass list"
  | P.Mlt_linalg ->
      [
        T.Canonicalize.pass;
        Transforms.Tactics.raise_to_linalg_pass ();
        T.Lower_linalg.tiled_pass ~size:32;
      ]
  | P.Mlt_blas ->
      [
        T.Canonicalize.pass;
        Transforms.Tactics.raise_to_linalg_pass ();
        Transforms.Raise_chain.pass;
        Transforms.To_blas.pass;
        T.Lower_linalg.pass;
      ]
  | P.Mlt_affine_blis ->
      [ T.Canonicalize.pass; Transforms.Tactics.raise_to_affine_matmul_pass () ]

let sole_func m =
  List.find Core.is_func (Core.ops_of_block (Core.module_block m))

let test_configs_match_legacy () =
  let kernels =
    [
      ("mm", W.mm ~ni:8 ~nj:8 ~nk:8 ());
      ("2mm", W.two_mm ~ni:8 ~nj:8 ~nk:8 ~nl:8 ());
    ]
  in
  List.iter
    (fun config ->
      List.iter
        (fun (kname, src) ->
          let scripted = P.prepare config src in
          let legacy = Met.Emit_affine.translate src in
          let pm = Pass.create_manager () in
          Pass.add_all pm (legacy_passes config);
          Pass.run pm (sole_func legacy);
          Verifier.verify legacy;
          Alcotest.(check string)
            (Printf.sprintf "%s on %s byte-identical to legacy pass list"
               (P.config_name config) kname)
            (Printer.op_to_string legacy)
            (Printer.op_to_string scripted))
        kernels)
    (* pluto-best is a search, timed by Pipeline.time; it has no script. *)
    (List.filter (fun c -> c <> P.Pluto_best) P.all_configs)

(* The vectorizing Pluto elaboration (interchange + fast_math marking)
   must match Pluto.apply too — it is what the tuner's sweep runs. *)
let test_vectorized_pluto_matches_apply () =
  let src = W.mm ~ni:8 ~nj:8 ~nk:8 () in
  List.iter
    (fun (cfg : T.Pluto.config) ->
      let legacy = Met.Emit_affine.translate src in
      T.Pluto.apply cfg (sole_func legacy);
      Verifier.verify legacy;
      let scripted = Met.Emit_affine.translate src in
      let compiled = Transform.Interp.compile_steps (Script.of_pluto cfg) in
      List.iter
        (fun c -> ignore (Transform.Interp.apply_step c (sole_func scripted)))
        compiled;
      Verifier.verify scripted;
      Alcotest.(check string)
        (T.Pluto.config_to_string cfg ^ " matches Pluto.apply")
        (Printer.op_to_string legacy)
        (Printer.op_to_string scripted))
    [
      { T.Pluto.tile = 16; fusion = T.Loop_fuse.Smart_fuse; vectorize = true };
      { T.Pluto.tile = 1; fusion = T.Loop_fuse.Max_fuse; vectorize = true };
      { T.Pluto.tile = 32; fusion = T.Loop_fuse.No_fuse; vectorize = false };
    ]

(* ---- interpretation details -------------------------------------------- *)

let test_run_applies_in_sequence () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let script =
    Script.of_steps
      [ Script.Canonicalize false; Script.Raise "linalg"; Script.Dce ]
  in
  Transform.Interp.run script (sole_func m);
  Verifier.verify m;
  let raised = ref 0 in
  Core.walk m (fun op ->
      if String.starts_with ~prefix:"linalg." op.Core.o_name then incr raised);
  Alcotest.(check bool) "raised to linalg" true (!raised >= 1)

let test_inapplicable_step_remarks () =
  (* A payload with no linalg ops: lower_linalg applies nowhere and must
     say so through the remark layer. *)
  let m = Met.Emit_affine.translate (W.mm ~ni:4 ~nj:4 ~nk:4 ()) in
  let remarks = ref [] in
  let count =
    Remark.with_sink
      (fun r -> remarks := r :: !remarks)
      (fun () ->
        let compiled =
          Transform.Interp.compile_steps [ Script.Lower_linalg None ]
        in
        Transform.Interp.apply_step (List.hd compiled) (sole_func m))
  in
  Alcotest.(check int) "applied to nothing" 0 count;
  match
    List.filter
      (fun r ->
        r.Remark.r_kind = Remark.Analysis
        && r.Remark.r_context = Some "transform")
      !remarks
  with
  | [ r ] ->
      Alcotest.(check bool) "remark names the step" true
        (Astring_contains.contains r.Remark.r_message "transform.lower_linalg")
  | rs ->
      Alcotest.failf "expected exactly one inapplicability remark, got %d"
        (List.length rs)

let test_applicable_step_counts () =
  let m = Met.Emit_affine.translate (W.mm ~ni:8 ~nj:8 ~nk:8 ()) in
  let compiled = Transform.Interp.compile_steps [ Script.Tile [ 4 ] ] in
  let count = Transform.Interp.apply_step (List.hd compiled) (sole_func m) in
  Alcotest.(check int) "one tiled nest" 1 count

(* Every step constructor, compiled through [compile_steps] and applied
   to a fixed payload: the compiled step carries the {!Script.step_name}
   label (as does its pass) and reports a pinned application count.
   [setup] steps first bring the payload to the level the step works on. *)
let step_count_table =
  let mm = W.mm ~ni:8 ~nj:8 ~nk:8 () in
  let two_mm = W.two_mm ~ni:8 ~nj:8 ~nk:8 ~nl:8 () in
  let chain = W.matrix_chain [ 16; 22; 18; 24; 2 ] in
  (* Two independent nests (fusable), foldable [1.0 *] and [0.0 *]
     terms, and a local buffer nothing reads (dead). *)
  let fold =
    "void k(float A[8][8], float B[8][8], float C[8][8]) {\n\
    \  float T[8][8];\n\
    \  for (int i = 0; i < 8; ++i)\n\
    \    for (int j = 0; j < 8; ++j)\n\
    \      C[i][j] = C[i][j] + 1.0 * A[i][j] + 0.0 * B[i][j];\n\
    \  for (int i = 0; i < 8; ++i)\n\
    \    for (int j = 0; j < 8; ++j)\n\
    \      T[i][j] = A[i][j];\n\
     }\n"
  in
  let linalg = [ Script.Canonicalize false; Script.Raise "linalg" ] in
  [
    (* step, setup, payload, count *)
    (Script.Tile [ 4 ], [], mm, 1);
    (Script.Tile [ 4; 2 ], [], mm, 1);
    (Script.Interchange, [], mm, 1);
    (Script.Fuse T.Loop_fuse.Max_fuse, [], W.mvt ~n:8 (), 2);
    (Script.Fuse T.Loop_fuse.Smart_fuse, [], fold, 2);
    (Script.Fuse T.Loop_fuse.No_fuse, [], fold, 0);
    (Script.Unroll 2, [], mm, 1);
    (Script.Lower_affine, [], mm, 3);
    (Script.Lower_linalg None, linalg, mm, 1);
    (Script.Lower_linalg (Some 4), linalg, mm, 1);
    ( Script.Blis_schedule { T.Blis_schedule.mc = 4; nc = 4; kc = 4 },
      [ Script.Canonicalize false; Script.Raise "affine-matmul" ],
      mm,
      1 );
    (Script.Raise "linalg", [ Script.Canonicalize false ], two_mm, 3);
    (Script.Raise "affine-matmul", [ Script.Canonicalize false ], mm, 1);
    (Script.Raise "affine", [ Script.Lower_affine ], mm, 7);
    (Script.Canonicalize false, [], fold, 1);
    (Script.Canonicalize true, [], fold, 3);
    (Script.Dce, [], fold, 5);
    (Script.Reorder_chains, linalg, chain, 1);
    (Script.To_blas, linalg, two_mm, 2);
  ]

(* Exhaustive on purpose: a new step constructor does not compile here
   until it gets a rank, and then fails the coverage check below until
   it gets a row in the table. *)
let constructor_rank = function
  | Script.Tile _ -> 0
  | Script.Interchange -> 1
  | Script.Fuse _ -> 2
  | Script.Unroll _ -> 3
  | Script.Lower_affine -> 4
  | Script.Lower_linalg _ -> 5
  | Script.Blis_schedule _ -> 6
  | Script.Raise _ -> 7
  | Script.Canonicalize _ -> 8
  | Script.Dce -> 9
  | Script.Reorder_chains -> 10
  | Script.To_blas -> 11

let test_every_step_counts () =
  Alcotest.(check (list int)) "a row for every step constructor"
    (List.init 12 Fun.id)
    (List.sort_uniq compare
       (List.map (fun (step, _, _, _) -> constructor_rank step)
          step_count_table));
  List.iter
    (fun (step, setup, src, expected) ->
      let name = Script.step_name step in
      let f = sole_func (Met.Emit_affine.translate src) in
      List.iter
        (fun c -> ignore (Transform.Interp.apply_step c f))
        (Transform.Interp.compile_steps setup);
      match Transform.Interp.compile_steps [ step ] with
      | [ c ] ->
          Alcotest.(check string) (name ^ ": compiled name") name
            c.Transform.Interp.c_name;
          Alcotest.(check (list string)) (name ^ ": pass name") [ name ]
            (List.map
               (fun p -> p.Pass.name)
               (Transform.Interp.passes_of_steps [ step ]));
          Alcotest.(check int) (name ^ ": application count") expected
            (Transform.Interp.apply_step c f)
      | cs -> Alcotest.failf "%s compiled to %d steps" name (List.length cs))
    step_count_table

(* ---- rejection of malformed scripts ------------------------------------ *)

let rejects name text =
  match Script.parse ~file:(name ^ ".mlir") text with
  | exception Support.Diag.Error _ -> ()
  | _ -> Alcotest.failf "%s: malformed script accepted" name

let test_verifier_rejections () =
  rejects "empty-sizes"
    "builtin.module { \"transform.tile\"() {sizes = []} : () -> () }";
  rejects "zero-tile"
    "builtin.module { \"transform.tile\"() {sizes = [0]} : () -> () }";
  rejects "bad-heuristic"
    "builtin.module { \"transform.fuse\"() {heuristic = \"speedfuse\"} : () \
     -> () }";
  rejects "unroll-by-one"
    "builtin.module { \"transform.unroll\"() {factor = 1} : () -> () }";
  rejects "unknown-raise-set"
    "builtin.module { \"transform.raise\"() {set = \"mlir\"} : () -> () }";
  rejects "missing-blocking"
    "builtin.module { \"transform.blis_schedule\"() {mc = 64} : () -> () }";
  rejects "stray-attr"
    "builtin.module { \"transform.dce\"() {level = 3} : () -> () }";
  rejects "not-a-transform-op"
    "builtin.module { \"arith.constant\"() {value = 1} : () -> () }"

(* pluto-best is a machine-model search: asking for its script (to
   compile it, or to key a cache entry) is an error that points at
   mlt-sim, not pluto-default's script under pluto-best's name. *)
let test_pluto_best_has_no_script () =
  List.iter
    (fun (what, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: pluto-best produced a script" what
      | exception Support.Diag.Error (_, msg) ->
          Alcotest.(check bool) (what ^ " names mlt-sim") true
            (Astring_contains.contains msg "mlt-sim"))
    [
      ("steps_of_config", fun () -> ignore (P.steps_of_config P.Pluto_best));
      ( "schedule_cache_identity",
        fun () -> ignore (P.schedule_cache_identity (P.Config P.Pluto_best)) );
      ( "prepare",
        fun () -> ignore (P.prepare P.Pluto_best (W.mm ~ni:8 ~nj:8 ~nk:8 ())) );
    ]

let test_schedule_names () =
  let s = P.schedule_of_steps [ Script.Tile [ 16 ] ] in
  (match s with
  | P.Custom { name; _ } ->
      Alcotest.(check bool) "digest-derived name" true
        (String.starts_with ~prefix:"script:" name)
  | P.Config _ -> Alcotest.fail "expected a custom schedule");
  let s2 = P.schedule_of_steps [ Script.Tile [ 16 ] ] in
  Alcotest.(check string) "equal scripts, equal default names"
    (P.schedule_name s) (P.schedule_name s2);
  Alcotest.(check string) "explicit name wins" "mine"
    (P.schedule_name (P.schedule_of_steps ~name:"mine" [ Script.Dce ]))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "five configs byte-identical to legacy pass lists"
      `Quick test_configs_match_legacy;
    Alcotest.test_case "vectorized pluto elaborations match Pluto.apply"
      `Quick test_vectorized_pluto_matches_apply;
    Alcotest.test_case "Interp.run applies steps in sequence" `Quick
      test_run_applies_in_sequence;
    Alcotest.test_case "inapplicable step emits an analysis remark" `Quick
      test_inapplicable_step_remarks;
    Alcotest.test_case "applicable step reports its application count"
      `Quick test_applicable_step_counts;
    Alcotest.test_case "every step: name and pinned application count"
      `Quick test_every_step_counts;
    Alcotest.test_case "verifier rejects malformed scripts" `Quick
      test_verifier_rejections;
    Alcotest.test_case "custom schedule naming" `Quick test_schedule_names;
    Alcotest.test_case "pluto-best has no script" `Quick
      test_pluto_best_has_no_script;
  ]
