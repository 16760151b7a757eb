(* Seeded inputs and reference outputs for the benchmark's workloads.

   Everything a workload feeds the program is built here from the seed;
   the expected Figure 9 numbers are read from the E3 table of
   EXPERIMENTS.md, so the checks follow the documented results. *)

module W = Workloads.Polybench
module MM = Machine.Machine_model
module P = Mlt.Pipeline

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

(* ---- the E3 table ---------------------------------------------------------- *)

(* Column order of the E3 table, per machine half. *)
let e3_columns =
  [
    ("clang", P.Clang_O3);
    ("pluto-d", P.Pluto_default);
    ("pluto-b", P.Pluto_best);
    ("mlt-lin", P.Mlt_linalg);
    ("mlt-blas", P.Mlt_blas);
  ]

(* [(kernel, machine name, config name) -> GFLOPS printed to 2 decimals],
   parsed from the fenced block under "## E3" in EXPERIMENTS.md. *)
let e3_table () =
  let lines =
    try In_channel.with_open_text "EXPERIMENTS.md" In_channel.input_lines
    with Sys_error e -> fail "cannot read the E3 table: %s" e
  in
  let words s = String.split_on_char ' ' s |> List.filter (( <> ) "") in
  let rec to_section = function
    | l :: rest when String.starts_with ~prefix:"## E3" l -> rest
    | _ :: rest -> to_section rest
    | [] -> fail "EXPERIMENTS.md has no E3 section"
  in
  let rec to_fence = function
    | l :: rest when String.starts_with ~prefix:"```" l -> rest
    | _ :: rest -> to_fence rest
    | [] -> fail "E3 section has no table"
  in
  match to_fence (to_section lines) with
  | machines_line :: columns_line :: rows ->
      let pos name =
        let n = String.length name and m = String.length machines_line in
        let rec go i =
          if i + n > m then fail "E3 table does not name machine %s" name
          else if String.sub machines_line i n = name then i
          else go (i + 1)
        in
        go 0
      in
      let machines =
        List.sort (fun a b -> compare (pos a) (pos b))
          (List.map (fun (m : MM.t) -> m.MM.name) MM.platforms)
      in
      let expected_cols =
        "kernel"
        :: List.concat
             (List.mapi
                (fun i _ -> (if i > 0 then [ "|" ] else []) @ List.map fst e3_columns)
                machines)
      in
      if words columns_line <> expected_cols then
        fail "unexpected E3 column header: %s" columns_line;
      let table = Hashtbl.create 256 in
      let rec read = function
        | l :: _ when String.starts_with ~prefix:"```" l -> ()
        | l :: rest -> (
            match words l with
            | kernel :: _ when kernel = "geomean" -> read rest
            | kernel :: cells ->
                let halves =
                  String.concat " " cells |> String.split_on_char '|'
                  |> List.map words
                in
                if List.length halves <> List.length machines then
                  fail "malformed E3 row: %s" l;
                List.iter2
                  (fun machine values ->
                    if List.length values <> List.length e3_columns then
                      fail "malformed E3 row: %s" l;
                    List.iter2
                      (fun (_, config) v ->
                        Hashtbl.replace table
                          (kernel, machine, P.config_name config)
                          v)
                      e3_columns values)
                  machines halves;
                read rest
            | [] -> read rest)
        | [] -> fail "unterminated E3 table"
      in
      read rows;
      table
  | _ -> fail "E3 table is empty"

let expected_gflops table ~kernel ~machine ~config =
  match Hashtbl.find_opt table (kernel, machine, config) with
  | Some v -> v
  | None -> fail "E3 table has no cell %s / %s / %s" kernel machine config

(* ---- Figure 9 cells ------------------------------------------------------- *)

let level2 = [ "atax"; "bicg"; "gemver"; "gesummv"; "mvt" ]

(* The four configurations that are not tuned. *)
let fig9_configs = [ P.Clang_O3; P.Pluto_default; P.Mlt_linalg; P.Mlt_blas ]

type cell = {
  kernel : string;
  src : string;
  flops : float;
  config : P.config;
  machine : MM.t;
}

(* Stratified draw from the 128 non-tuned cells, one stratum per
   (kernel, configuration). The 31 cheap strata — library calls and the
   level-2 kernels, each under 0.1 s — are taken on both machines; each
   of the 33 level-3 loop strata (0.3-1.6 s a cell) contributes one cell,
   on a machine drawn from the seed. Both machines simulate the same
   accesses, so every draw does the same modelled work, and the latency
   percentiles do not sit on the edge between the cheap and the costly
   cells. 95 cells, in the kernel-major order of [bench -- fig9]: the
   heap's growth, and with it peak RSS, depends on the order. *)
let fig9_cells ~seed =
  let st = Random.State.make [| seed; 9 |] in
  let platforms = Array.of_list MM.platforms in
  W.figure9_suite ()
  |> List.concat_map (fun (kernel, src, flops) ->
         List.concat_map
           (fun config ->
             let cell machine = { kernel; src; flops; config; machine } in
             if config = P.Mlt_blas || List.mem kernel level2 then
               List.map cell MM.platforms
             else
               [ cell platforms.(Random.State.int st (Array.length platforms)) ])
           fig9_configs)
  |> Array.of_list

(* ---- Pluto tuning searches ---------------------------------------------- *)

(* The 5 level-2 kernels x both machines. The E3 check fixes their sizes,
   so the seed changes nothing here; the order is fixed too, because it
   changes how the heap grows. *)
let pluto_searches () =
  W.figure9_suite ()
  |> List.filter (fun (k, _, _) -> List.mem k level2)
  |> List.concat_map (fun (kernel, src, flops) ->
         List.map
           (fun machine -> { kernel; src; flops; config = P.Pluto_best; machine })
           MM.platforms)
  |> Array.of_list

(* ---- batch manifests -------------------------------------------------- *)

let batch_configs =
  [ P.Clang_O3; P.Pluto_default; P.Mlt_linalg; P.Mlt_blas; P.Mlt_affine_blis ]

(* The 16 Figure 9 kernel families at seeded sizes. [job] enters one
   extent of every family injectively (for [job] < 256), so two jobs of
   one process never compile the same source text. *)
let families ~seed ~job =
  let st = Random.State.make [| seed; 11; job |] in
  let off = Random.State.int (Random.State.make [| seed; 13 |]) 256 in
  let u = 40 + ((off + job) mod 256) in
  let r lo hi = lo + Random.State.int st (hi - lo + 1) in
  let polybench =
    [
      ("atax", W.atax ~m:u ~n:(r 40 200) ());
      ("bicg", W.bicg ~m:u ~n:(r 40 200) ());
      ("gemver", W.gemver ~n:u ());
      ("gesummv", W.gesummv ~n:u ());
      ("mvt", W.mvt ~n:u ());
      ("2mm", W.two_mm ~ni:u ~nj:(r 40 128) ~nk:(r 40 128) ~nl:(r 40 128) ());
      ( "3mm",
        W.three_mm ~ni:u ~nj:(r 40 128) ~nk:(r 40 128) ~nl:(r 40 128)
          ~nm:(r 40 128) () );
      ("gemm", W.gemm ~ni:u ~nj:(r 40 160) ~nk:(r 40 160) ());
      ( "conv2d-nchw",
        W.conv2d_nchw ~n:1 ~c:(r 2 8) ~h:u ~w:(r 12 40) ~f:(r 2 8)
          ~kh:(r 2 5) ~kw:(r 2 5) () );
    ]
  in
  let contractions =
    List.map
      (fun (name, spec, sizes) ->
        let sizes =
          List.mapi (fun i (ix, _) -> (ix, if i = 0 then u else r 8 32)) sizes
        in
        (name, Workloads.Contraction_spec.c_source spec ~sizes ~name:"contraction" ()))
      (Workloads.Contraction_spec.paper_benchmarks ())
  in
  polybench @ contractions

(* One batch job: every family under each of the 5 non-tuned schedules,
   as inline sources. *)
let manifest ~seed ~job =
  families ~seed ~job
  |> List.concat_map (fun (name, src) ->
         List.map
           (fun c ->
             {
               Batch.Manifest.e_name = name ^ "@" ^ P.config_name c;
               e_source = Batch.Manifest.Inline src;
               e_schedule = P.Config c;
             })
           batch_configs)
  |> Batch.Manifest.of_entries
