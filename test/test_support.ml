(* Tests for the support utilities and small IR helpers. *)

let test_loc () =
  let l = Support.Loc.make ~file:"x.c" ~line:3 ~col:7 in
  Alcotest.(check string) "render" "x.c:3:7" (Support.Loc.to_string l);
  Alcotest.(check string) "unknown" "<unknown>"
    (Support.Loc.to_string Support.Loc.unknown)

let test_diag () =
  (match Support.Diag.wrap (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "ok passes through" 42 v
  | Error _ -> Alcotest.fail "unexpected error");
  (match
     Support.Diag.wrap (fun () -> Support.Diag.errorf "bad %s %d" "thing" 7)
   with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg -> Alcotest.(check string) "formatted" "bad thing 7" msg);
  let loc = Support.Loc.make ~file:"f.tdl" ~line:1 ~col:2 in
  match Support.Diag.wrap (fun () -> Support.Diag.error ~loc "oops") with
  | Error msg -> Alcotest.(check string) "located" "f.tdl:1:2: oops" msg
  | Ok _ -> Alcotest.fail "expected error"

let test_id_gen () =
  let g = Support.Id_gen.create () in
  let a = Support.Id_gen.next g in
  let b = Support.Id_gen.next g in
  let c = Support.Id_gen.next g in
  Alcotest.(check (list int)) "monotonic" [ 0; 1; 2 ] [ a; b; c ]

let test_typ_helpers () =
  let t = Ir.Typ.memref [ 2; 3; 4 ] Ir.Typ.F32 in
  Alcotest.(check int) "rank" 3 (Ir.Typ.memref_rank t);
  Alcotest.(check (option (list int))) "shape" (Some [ 2; 3; 4 ])
    (Ir.Typ.static_shape t);
  Alcotest.(check (option int)) "elements" (Some 24) (Ir.Typ.num_elements t);
  Alcotest.(check string) "render" "memref<2x3x4xf32>" (Ir.Typ.to_string t);
  let dyn = Ir.Typ.Mem_ref ([ Ir.Typ.Dynamic; Ir.Typ.Static 4 ], Ir.Typ.F32) in
  Alcotest.(check (option (list int))) "dynamic shape" None
    (Ir.Typ.static_shape dyn);
  Alcotest.(check string) "dynamic render" "memref<?x4xf32>"
    (Ir.Typ.to_string dyn);
  Alcotest.(check bool) "scalar" true (Ir.Typ.is_scalar Ir.Typ.Index);
  Alcotest.(check bool) "not scalar" false (Ir.Typ.is_scalar t)

let test_attr_accessors () =
  Alcotest.(check int) "int" 5 (Ir.Attr.get_int (Ir.Attr.Int 5));
  Alcotest.(check (list int)) "ints" [ 1; 2 ]
    (Ir.Attr.get_ints (Ir.Attr.Ints [ 1; 2 ]));
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Attr: expected int, got \"x\"") (fun () ->
      ignore (Ir.Attr.get_int (Ir.Attr.Str "x")));
  let g = Ir.Attr.Grouping [ [ 0; 1 ]; [ 2 ] ] in
  Alcotest.(check string) "grouping render" "{{0, 1}, 2}" (Ir.Attr.to_string g);
  Alcotest.(check bool) "equal" true
    (Ir.Attr.equal g (Ir.Attr.Grouping [ [ 0; 1 ]; [ 2 ] ]));
  Alcotest.(check bool) "not equal" false (Ir.Attr.equal g (Ir.Attr.Int 3))

let test_contraction_spec_errors () =
  let expect_fail s =
    match Support.Diag.wrap (fun () -> Workloads.Contraction_spec.parse s) with
    | Ok _ -> Alcotest.failf "expected rejection of %S" s
    | Error _ -> ()
  in
  expect_fail "ab-cd";
  expect_fail "aab-ab-b";
  expect_fail "abz-ab-b";
  expect_fail "ab--b";
  let t = Workloads.Contraction_spec.parse "abc-acd-db" in
  Alcotest.(check (list char)) "contracted" [ 'd' ]
    (Workloads.Contraction_spec.contracted t);
  Alcotest.(check (list char)) "free1" [ 'a'; 'c' ]
    (Workloads.Contraction_spec.free1 t);
  Alcotest.(check (list char)) "free2" [ 'b' ]
    (Workloads.Contraction_spec.free2 t);
  Alcotest.(check string) "roundtrip" "abc-acd-db"
    (Workloads.Contraction_spec.to_string t);
  Alcotest.(check (float 0.)) "flops"
    (2. *. 3. *. 4. *. 5. *. 6.)
    (Workloads.Contraction_spec.flops t
       ~sizes:[ ('a', 3); ('b', 4); ('c', 5); ('d', 6) ])

(* ---- JSON reader: \uXXXX escapes decode to UTF-8 ------------------ *)

module J = Support.Json

let json =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (J.to_string v))
    ( = )

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let expect_reject s =
  match J.parse s with
  | Ok _ -> Alcotest.failf "expected %S to be rejected" s
  | Error _ -> ()

let test_json_unicode_escapes () =
  (* One escape from each UTF-8 width class, byte-exact. The old reader
     truncated every code point to its low byte. *)
  Alcotest.check json "1-byte (A)" (J.Str "A") (parse_ok {|"\u0041"|});
  Alcotest.check json "2-byte (e-acute)" (J.Str "\xc3\xa9")
    (parse_ok {|"\u00e9"|});
  Alcotest.check json "3-byte (euro sign)" (J.Str "\xe2\x82\xac")
    (parse_ok {|"\u20ac"|});
  Alcotest.check json "uppercase hex accepted" (J.Str "\xe2\x82\xac")
    (parse_ok {|"\u20AC"|});
  Alcotest.check json "4-byte via surrogate pair"
    (J.Str "\xf0\x9f\x98\x80")
    (parse_ok {|"\ud83d\ude00"|});
  Alcotest.check json "escapes concatenate" (J.Str "A\xc3\xa9B")
    (parse_ok {|"\u0041\u00e9\u0042"|});
  expect_reject {|"\ud83d"|};       (* unpaired high surrogate *)
  expect_reject {|"\ude00"|};       (* unpaired low surrogate *)
  expect_reject {|"\ud83dx"|};      (* high surrogate, then raw text *)
  expect_reject {|"\ud83d\u0041"|}; (* high surrogate, then non-low *)
  expect_reject {|"\u12g4"|};       (* bad hex digit *)
  expect_reject {|"\u1_23"|};       (* int_of_string would take "0x1_23" *)
  expect_reject {|"\u004"|}         (* truncated escape *)

let test_json_writer_roundtrip () =
  let v =
    J.Obj
      [
        ("name", J.Str "a\"b\\c\n\t\xe2\x82\xac");
        ("n", J.num_int 42);
        ("xs", J.List [ J.Null; J.Bool true; J.Num 0.5 ]);
        ("empty", J.Obj []);
      ]
  in
  Alcotest.check json "round-trip" v (parse_ok (J.to_string v));
  Alcotest.(check string) "integers render without a decimal point"
    {|{"a":2,"b":-7}|}
    (J.to_string (J.Obj [ ("a", J.Num 2.); ("b", J.num_int (-7)) ]));
  Alcotest.(check string) "fraction" "0.5" (J.to_string (J.Num 0.5));
  (* Sub-microsecond timings exercise the shortest-round-trip path. *)
  let f = 1.8835067749023438e-05 in
  (match parse_ok (J.to_string (J.Num f)) with
  | J.Num g -> Alcotest.(check (float 0.)) "float exact through text" f g
  | _ -> Alcotest.fail "expected a number");
  Alcotest.check_raises "non-finite rejected"
    (Invalid_argument "Json.to_string: non-finite number") (fun () ->
      ignore (J.to_string (J.Num Float.nan)));
  Alcotest.(check string) "control characters escaped" {|"\u0001\n"|}
    (J.to_string (J.Str "\x01\n"));
  Alcotest.(check (option int)) "to_int on integral" (Some 42)
    (J.to_int (J.num_int 42));
  Alcotest.(check (option int)) "to_int on fraction" None
    (J.to_int (J.Num 0.5))

(* ---- Atomic_io: no code path leaves a torn file ------------------- *)

let rec rm_rf path =
  if try Sys.is_directory path with Sys_error _ -> false then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    try Sys.rmdir path with Sys_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let with_tmp_dir f =
  let dir = Filename.temp_dir "mlt_support_test" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_atomic_write () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "out.txt" in
  Support.Atomic_io.write_file ~path "first\n";
  Alcotest.(check string) "written" "first\n" (read_file path);
  Support.Atomic_io.write_file ~path "second\n";
  Alcotest.(check string) "overwritten" "second\n" (read_file path);
  (* A writer that raises mid-way must leave the previous content
     intact and no temp debris behind. *)
  (try
     Support.Atomic_io.with_file ~path (fun oc ->
         Out_channel.output_string oc "torn";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "old content preserved on raise" "second\n"
    (read_file path);
  Alcotest.(check (list string)) "no temp debris" [ "out.txt" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Support.Atomic_io.append_line ~path "line1";
  Support.Atomic_io.append_line ~path "line2";
  Alcotest.(check string) "append_line appends with newline"
    "second\nline1\nline2\n" (read_file path)

let test_mkdir_p () =
  with_tmp_dir @@ fun dir ->
  let nested = Filename.concat (Filename.concat dir "a") "b" in
  Support.Atomic_io.mkdir_p nested;
  Alcotest.(check bool) "nested created" true (Sys.is_directory nested);
  Support.Atomic_io.mkdir_p nested;
  (* A regular file on the path is a precise error, not a silent
     success (the old batch mkdir_p only checked Sys.file_exists). *)
  let file = Filename.concat dir "plain" in
  Support.Atomic_io.write_file ~path:file "x";
  (match
     Support.Atomic_io.mkdir_p (Filename.concat file "child")
   with
  | () -> Alcotest.fail "expected mkdir_p through a file to fail"
  | exception Support.Diag.Error (_, msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the offender: %s" msg)
        true
        (String.length msg > 0
        && String.ends_with ~suffix:"exists and is not a directory" msg));
  match Support.Atomic_io.mkdir_p file with
  | () -> Alcotest.fail "expected mkdir_p of a file to fail"
  | exception Support.Diag.Error _ -> ()

(* ---- the domain pool ---------------------------------------------- *)

let test_pool_map () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let runs = Array.init n (fun _ -> Atomic.make 0) in
          let out =
            Support.Pool.map ~domains n (fun ~worker i ->
                Atomic.incr runs.(i);
                (i, worker))
          in
          let what = Printf.sprintf "domains %d, n %d" domains n in
          Alcotest.(check (list int)) (what ^ ": results in index order")
            (List.init n Fun.id)
            (Array.to_list (Array.map fst out));
          Array.iteri
            (fun i r ->
              Alcotest.(check int)
                (Printf.sprintf "%s: index %d runs once" what i)
                1 (Atomic.get r))
            runs;
          Array.iter
            (fun (_, w) ->
              Alcotest.(check bool) (what ^ ": worker < min domains n") true
                (w >= 0 && w < min domains n))
            out)
        [ 0; 1; 3; 257 ])
    [ 1; 2; 4; 8 ]

(* An item raising on the calling domain surfaces only after every
   spawned worker has finished the item it was running: nothing is
   still in flight when [map] raises. *)
let test_pool_joins_before_raising () =
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  match
    Support.Pool.map ~domains:4 64 (fun ~worker _ ->
        Atomic.incr started;
        if worker = 0 then failwith "worker 0";
        Unix.sleepf 0.01;
        Atomic.incr finished)
  with
  | _ -> Alcotest.fail "expected the raising item to propagate"
  | exception Failure msg ->
      Alcotest.(check string) "the item's own exception" "worker 0" msg;
      Alcotest.(check int) "every other started item finished"
        (Atomic.get started - 1) (Atomic.get finished)

let suite =
  [
    Alcotest.test_case "locations" `Quick test_loc;
    Alcotest.test_case "diagnostics" `Quick test_diag;
    Alcotest.test_case "id generation" `Quick test_id_gen;
    Alcotest.test_case "type helpers" `Quick test_typ_helpers;
    Alcotest.test_case "attribute accessors" `Quick test_attr_accessors;
    Alcotest.test_case "contraction specs" `Quick test_contraction_spec_errors;
    Alcotest.test_case "json \\u escapes decode to UTF-8" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "json writer round-trips" `Quick
      test_json_writer_roundtrip;
    Alcotest.test_case "atomic writes never tear" `Quick test_atomic_write;
    Alcotest.test_case "mkdir_p rejects files on the path" `Quick
      test_mkdir_p;
    Alcotest.test_case "Pool.map: every index once, in order" `Quick
      test_pool_map;
    Alcotest.test_case "Pool.map joins every worker before raising" `Quick
      test_pool_joins_before_raising;
  ]
