(* Tests for the Teckyl-style TC entry point: a high-level Einstein
   statement becomes Linalg directly, and the result agrees with the same
   computation entered through MET + raising. *)

open Ir

let count_ops m name =
  let c = ref 0 in
  Core.walk m (fun op -> if String.equal op.Core.o_name name then incr c);
  !c

let test_tc_gemm () =
  let m =
    Tdl.Tc_frontend.module_of ~name:"mm"
      ~sizes:[ ("i", 6); ("j", 7); ("k", 8) ]
      "C(i,j) += A(i,k) * B(k,j)"
  in
  Alcotest.(check int) "one matmul" 1 (count_ops m "linalg.matmul");
  (* Argument shapes derive from index extents: A 6x8, B 8x7, C 6x7. *)
  let f = Option.get (Core.find_func m "mm") in
  let shapes =
    List.map
      (fun (v : Core.value) -> Option.get (Typ.static_shape v.v_typ))
      (Core.func_args f)
  in
  Alcotest.(check (list (list int))) "shapes"
    [ [ 6; 8 ]; [ 8; 7 ]; [ 6; 7 ] ]
    shapes

let test_tc_agrees_with_met_entry () =
  (* Same function, entered at the top (TC -> Linalg) and at the bottom
     (C -> affine -> raised to Linalg): interpreter-identical. *)
  let n = 6 in
  let top =
    Tdl.Tc_frontend.module_of ~name:"mm"
      ~sizes:[ ("i", n); ("j", n); ("k", n) ]
      "C(i,j) += A(i,k) * B(k,j)"
  in
  let bottom = Met.Emit_affine.translate (Workloads.Polybench.mm ~ni:n ~nj:n ~nk:n ()) in
  ignore (Transforms.Tactics.raise_to_linalg bottom);
  Alcotest.(check bool) "same semantics from both entries" true
    (Interp.Eval.equivalent top bottom "mm" ~seed:103)

let test_tc_contraction_ttgt () =
  let m =
    Tdl.Tc_frontend.module_of ~name:"tc"
      ~sizes:[ ("a", 4); ("b", 5); ("c", 3); ("d", 6) ]
      "C(a,b,c) += A(a,c,d) * B(d,b)"
  in
  Alcotest.(check bool) "has transposes (TTGT)" true
    (count_ops m "linalg.transpose" > 0);
  Alcotest.(check int) "one matmul" 1 (count_ops m "linalg.matmul");
  (* Lower and run: against the direct contraction kernel. *)
  let spec = Workloads.Contraction_spec.parse "abc-acd-db" in
  let sizes = [ ('a', 4); ('b', 5); ('c', 3); ('d', 6) ] in
  let loops =
    Met.Emit_affine.translate
      (Workloads.Contraction_spec.c_source spec ~sizes ~init:false
         ~name:"tc" ())
  in
  Alcotest.(check bool) "equivalent" true
    (Interp.Eval.equivalent m loops "tc" ~seed:107)

let test_tc_conv_window_shapes () =
  let m =
    Tdl.Tc_frontend.module_of ~name:"conv"
      ~sizes:
        [ ("n", 1); ("f", 2); ("x", 6); ("y", 6); ("c", 2); ("r", 3); ("s", 3) ]
      "O(n,f,x,y) += I(n,c,x+r,y+s) * W(f,c,r,s)"
  in
  Alcotest.(check int) "conv op" 1 (count_ops m "linalg.conv2d_nchw");
  let f = Option.get (Core.find_func m "conv") in
  (* I gets the valid-convolution input extent x + r - 1 = 8. *)
  let i_shape =
    Option.get (Typ.static_shape (List.hd (Core.func_args f)).Core.v_typ)
  in
  Alcotest.(check (list int)) "input window shape" [ 1; 2; 8; 8 ] i_shape

let test_tc_errors () =
  let expect_fail sizes stmt =
    match
      Support.Diag.wrap (fun () ->
          Tdl.Tc_frontend.func ~name:"f" ~sizes stmt)
    with
    | Ok _ -> Alcotest.failf "expected TC error for %S" stmt
    | Error _ -> ()
  in
  expect_fail [ ("i", 4) ] "C(i) = A(i)";
  expect_fail [ ("i", 4) ] "C(i,j) += A(i,k) * B(k,j)";
  expect_fail [ ("i", 4); ("k", 4) ] "C(i) += A(i,k) * B(i,k)"

let suite =
  [
    Alcotest.test_case "tc gemm entry" `Quick test_tc_gemm;
    Alcotest.test_case "tc entry = met entry + raising" `Quick
      test_tc_agrees_with_met_entry;
    Alcotest.test_case "tc contraction via TTGT" `Quick
      test_tc_contraction_ttgt;
    Alcotest.test_case "tc conv window shapes" `Quick
      test_tc_conv_window_shapes;
    Alcotest.test_case "tc errors" `Quick test_tc_errors;
  ]
