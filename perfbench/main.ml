(* perfbench: end-to-end and per-layer benchmark of the raising compiler.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Workloads: fig9-cells, pluto-tune, batch-cold, batch-warm (README.md
   says why each exists and what each metric should move). The last line
   of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   --trace 0 runs the workload's op list untraced and reports the
   end-to-end metrics. --trace 1 reports the per-layer metrics: it runs
   the untraced list, the traced list (a one-domain replay for pluto-tune
   and batch-cold) and, for those two, the ops at two domains, each in a
   fresh child process of this executable ([--part]), so every part sees
   first-time inputs. *)

module J = Support.Json
module P = Mlt.Pipeline
module D = Batch.Driver
module I = Inputs

let now = Unix.gettimeofday
let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let part = ref ""

(* ---- statistics ----------------------------------------------------------- *)

let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let sum a = Array.fold_left ( +. ) 0. a
let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find (String.starts_with ~prefix:"VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)

(* ---- scratch files inside the checkout ------------------------------------ *)

let out_dir = ".perfbench"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let work_dir = lazy (Printf.sprintf "%s/work-%d" out_dir (Unix.getpid ()))
let fresh_dirs = ref 0

let fresh_dir () =
  incr fresh_dirs;
  Printf.sprintf "%s/cache-%d" (Lazy.force work_dir) !fresh_dirs

(* ---- per-layer counters ---------------------------------------------------- *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let bump name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

let sole_func m =
  List.find Ir.Core.is_func (Ir.Core.ops_of_block (Ir.Core.module_block m))

let count_ops m =
  let n = ref 0 in
  Ir.Core.walk m (fun _ -> incr n);
  !n

(* Rewriter counter deltas (calling domain) around [f]. *)
let with_rewriter f =
  let a0, r0 = Ir.Rewriter.counter_totals () in
  let v = f () in
  let a1, r1 = Ir.Rewriter.counter_totals () in
  bump "rewriter.match_attempts" (float_of_int (a1 - a0));
  bump "rewriter.rewrites" (float_of_int (r1 - r0));
  v

let translate src = Spans.span "met" (fun () -> Met.Emit_affine.translate src)

(* ---- ops and checks -------------------------------------------------------- *)

(* An op runs the program and returns [settle]; only the op is timed.
   [settle] runs right after it, untimed, and keeps only what the output
   check needs. The checks run after the whole list, so no check work
   falls between two timed ops. *)
type check = unit -> bool
type settle = unit -> check
type op = unit -> settle

let settled (check : check) : settle = fun () -> check

let check_gflops table (c : I.cell) ~config report =
  let got = Printf.sprintf "%.2f" (Machine.Perf.gflops ~flops:c.I.flops report) in
  let want =
    I.expected_gflops table ~kernel:c.I.kernel ~machine:c.I.machine.name
      ~config:(P.config_name config)
  in
  if got <> want then
    Printf.eprintf "perfbench: %s/%s/%s: %s GFLOPS, E3 table has %s\n%!"
      c.I.kernel c.I.machine.name (P.config_name config) got want;
  got = want

let all_done (rp : D.report) =
  List.for_all
    (fun r ->
      match r.D.r_status with
      | D.Done -> true
      | D.Failed msg ->
          Printf.eprintf "perfbench: entry %s failed: %s\n%!" r.D.r_name msg;
          false)
    rp.D.rp_results

let digests (rp : D.report) =
  List.map
    (fun r -> (Support.Digest.string r.D.r_ir, D.result_signature r))
    rp.D.rp_results

(* A run of [manifest] at [domains] domains, started from a domain of its
   own so its IR does not stay in this domain's region registry. This
   domain waits in [Domain.join] meanwhile. *)
let reference ~domains manifest =
  Domain.join (Domain.spawn (fun () -> D.run ~domains manifest))

(* Every entry's printed-IR digest and result signature equal those of a
   run at the other domain count. *)
let matches_reference ~domains manifest got =
  let other = 3 - domains in
  let want = digests (reference ~domains:other manifest) in
  List.iter2
    (fun ((wd, ws) as w) ((gd, gs) as g) ->
      if w <> g then
        Printf.eprintf
          "perfbench: %d-domain run differs from the %d-domain run (%s):\n  %d: %s %s\n  %d: %s %s\n%!"
          domains other
          (if wd = gd then "signature" else "IR digest")
          other wd ws domains gd gs)
    want got;
  want = got

let batch_record (rp : D.report) =
  let shards = Array.make rp.D.rp_domains 0. in
  List.iter
    (fun r -> shards.(r.D.r_shard) <- shards.(r.D.r_shard) +. r.D.r_seconds)
    rp.D.rp_results;
  let entry_s = D.total_entry_seconds rp in
  bump "batch.wall_s" rp.D.rp_wall_seconds;
  bump "batch.entry_s_sum" entry_s;
  bump "batch.parallel_eff"
    (ratio entry_s (rp.D.rp_wall_seconds *. float_of_int rp.D.rp_domains));
  bump "batch.shard_skew"
    (ratio
       (Array.fold_left Float.max 0. shards)
       (sum shards /. float_of_int rp.D.rp_domains));
  bump "batch.entries_failed" (float_of_int (D.failed_count rp))

(* ---- workloads ------------------------------------------------------------- *)

(* Every end-to-end op runs on one domain. On a two-vCPU guest an op
   that spans two domains waits for both at each garbage-collector
   synchronisation, so host CPU steal stretches it several-fold
   (README.md has the figures); the two-domain pools are measured in the
   traced run instead. *)
type workload = {
  setup : unit -> op array;
      (** builds the end-to-end op list: the set-up a user's command pays,
          timed in fresh processes as [setup_s] *)
  traced : unit -> op array;
      (** the ops decomposed into the public calls they make, or a
          one-domain replay of them, with a span around each call *)
  pool : (unit -> op array) option;  (** the same ops at two domains *)
}

let fig9 () =
  let table = I.e3_table () in
  let plain (c : I.cell) () =
    let r = P.time c.I.config c.I.machine c.I.src in
    settled (fun () -> check_gflops table c ~config:c.I.config r)
  in
  (* The calls [Pipeline.time] makes for a non-tuned config. *)
  let decomposed (c : I.cell) () =
    let m = translate c.I.src in
    bump "met.ir_ops" (float_of_int (count_ops m));
    let m =
      with_rewriter (fun () ->
          Spans.span "pipeline" (fun () ->
              P.prepare_schedule_module (P.Config c.I.config) m))
    in
    let r =
      Spans.span "machine" (fun () ->
          Machine.Perf.time_func c.I.machine (sole_func m))
    in
    bump "machine.accesses" r.Machine.Perf.stats.Machine.Trace.accesses;
    settled (fun () -> check_gflops table c ~config:c.I.config r)
  in
  let cells () = I.fig9_cells ~seed:!seed in
  {
    setup = (fun () -> Array.map plain (cells ()));
    traced = (fun () -> Array.map decomposed (cells ()));
    pool = None;
  }

let pluto () =
  let table = I.e3_table () in
  let searches () =
    Array.map
      (fun (c : I.cell) ->
        let probe = Met.Emit_affine.translate c.I.src in
        let space = Tune.pluto_space ~max_trip:(Tune.max_trip_count (sole_func probe)) in
        (c, space))
      (I.pluto_searches ())
  in
  let search ~domains ((c : I.cell), space) () =
    let o =
      Spans.span "tune" (fun () ->
          Tune.search ~domains ~machine:c.I.machine
            ~translate:(fun () -> Met.Emit_affine.translate c.I.src)
            space)
    in
    fun () ->
      bump "tune.candidates" (float_of_int o.Tune.o_stats.Tune.t_candidates);
      bump "tune.evaluated" (float_of_int o.Tune.o_stats.Tune.t_evaluated);
      fun () -> check_gflops table c ~config:P.Pluto_best o.Tune.o_best_report
  in
  (* [Tune.search]'s per-candidate calls on one domain. The prepared
     modules are kept so that settling can count the distinct
     (printed IR, fast_math) results; the printer drops fast_math. *)
  let replay ((c : I.cell), (space : Tune.candidate list)) () =
    let best = ref None and prepared = ref [] in
    Spans.span "tune" (fun () ->
        let compiled =
          List.map (fun k -> Transform.Interp.compile_steps k.Tune.c_steps) space
        in
        List.iter
          (fun steps ->
            match
              let m = translate c.I.src in
              bump "met.ir_ops" (float_of_int (count_ops m));
              let f = sole_func m in
              Spans.span "pipeline" (fun () ->
                  List.iter (fun s -> ignore (Transform.Interp.apply_step s f)) steps;
                  Ir.Verifier.verify m);
              prepared := (m, f) :: !prepared;
              Spans.span "machine" (fun () -> Machine.Perf.time_func c.I.machine f)
            with
            | r -> (
                bump "machine.accesses" r.Machine.Perf.stats.Machine.Trace.accesses;
                match !best with
                | Some (b : Machine.Perf.report)
                  when b.Machine.Perf.seconds <= r.Machine.Perf.seconds ->
                    ()
                | _ -> best := Some r)
            | exception _ -> ())
          compiled);
    fun () ->
      let distinct = Hashtbl.create 64 in
      List.iter
        (fun (m, f) ->
          let fast_math =
            match Ir.Core.find_attr f "fast_math" with
            | Some (Ir.Attr.Bool true) -> "+fast_math"
            | _ -> ""
          in
          Hashtbl.replace distinct
            (Support.Digest.string (Ir.Printer.op_to_string m) ^ fast_math)
            ())
        !prepared;
      bump "tune.replayed" (float_of_int (List.length space));
      bump "tune.distinct" (float_of_int (Hashtbl.length distinct));
      fun () ->
        match !best with
        | Some r -> check_gflops table c ~config:P.Pluto_best r
        | None -> false
  in
  {
    setup = (fun () -> Array.map (search ~domains:1) (searches ()));
    traced = (fun () -> Array.map replay (searches ()));
    pool = Some (fun () -> Array.map (search ~domains:2) (searches ()));
  }

let cold_jobs () = max 4 (5 * !seconds)

let batch_cold () =
  let manifests () = Array.init (cold_jobs ()) (fun job -> I.manifest ~seed:!seed ~job) in
  let job ~domains manifest () =
    let rp = Spans.span "batch" (fun () -> D.run ~domains manifest) in
    fun () ->
      batch_record rp;
      let ok = all_done rp and got = digests rp in
      fun () -> ok && matches_reference ~domains manifest got
  in
  (* [Batch.Driver.compile_entry]'s calls for an uncached entry, on one
     domain. *)
  let replay manifest () =
    let got =
      List.map
        (fun (e : Batch.Manifest.entry) ->
          let m = translate (Batch.Manifest.source_text e) in
          bump "met.ir_ops" (float_of_int (count_ops m));
          let pm = Ir.Pass.create_manager () in
          let m =
            with_rewriter (fun () ->
                Spans.span "pipeline" (fun () ->
                    P.prepare_schedule_module ~pm e.Batch.Manifest.e_schedule m))
          in
          let summary = Ir.Pass.summarize pm in
          Spans.span "printer" (fun () ->
              let text = Ir.Printer.op_to_string m ^ "\n" in
              bump "printer.bytes" (float_of_int (String.length text));
              (Support.Digest.string text, D.summary_signature summary)))
        (Batch.Manifest.entries manifest)
    in
    settled (fun () ->
        let want =
          List.map
            (fun r -> (Support.Digest.string r.D.r_ir, D.summary_signature r.D.r_summary))
            (reference ~domains:1 manifest).D.rp_results
        in
        if want <> got then prerr_endline "perfbench: replay differs from Batch.Driver.run";
        want = got)
  in
  {
    setup = (fun () -> Array.map (job ~domains:1) (manifests ()));
    traced = (fun () -> Array.map replay (manifests ()));
    pool = Some (fun () -> Array.map (job ~domains:2) (manifests ()));
  }

let warm_jobs () = max 10 (25 * !seconds)

let batch_warm () =
  (* Set-up fills a fresh cache with a cold run of the manifest. *)
  let fill () =
    let manifest = I.manifest ~seed:!seed ~job:0 in
    let dir = fresh_dir () in
    let cold = D.run ~domains:1 ~cache:(Batch.Cache.open_ ~dir) manifest in
    if not (all_done cold) then Inputs.fail "the cache fill failed";
    (manifest, dir, cold)
  in
  let job (manifest, dir, (cold : D.report)) () =
    let cache = Spans.span "cache" (fun () -> Batch.Cache.open_ ~dir) in
    let rp =
      Spans.span "batch" (fun () ->
          with_rewriter (fun () -> D.run ~domains:1 ~cache manifest))
    in
    fun () ->
      batch_record rp;
      bump "cache.entries" (float_of_int (Batch.Cache.entry_count cache));
      bump "cache.hits" (float_of_int rp.D.rp_cache_hits);
      bump "cache.manifest_entries" (float_of_int (Batch.Manifest.size manifest));
      let ok =
        rp.D.rp_cache_hits = Batch.Manifest.size manifest
        && List.for_all2
             (fun (w : D.entry_result) (c : D.entry_result) ->
               w.D.r_cached && w.D.r_ir = c.D.r_ir
               && D.result_signature w = D.result_signature c)
             rp.D.rp_results cold.D.rp_results
      in
      if not ok then prerr_endline "perfbench: warm run is not an all-hit copy of the cold run";
      fun () -> ok
  in
  let ops () =
    let filled = fill () in
    Array.init (warm_jobs ()) (fun _ -> job filled)
  in
  { setup = ops; traced = ops; pool = None }

let workloads =
  [ ("fig9-cells", fig9); ("pluto-tune", pluto); ("batch-cold", batch_cold); ("batch-warm", batch_warm) ]

(* ---- parts --------------------------------------------------------------- *)

type outcome = { attempted : int; failed : int; metrics : (string * float) list }

(* Runs [ops] one after another, timing each op alone, then runs their
   checks. [around] wraps each op (the traced parts record spans and
   counters there). *)
let run_list ?(around = fun (op : op) -> op ()) ops =
  let failed = ref 0 in
  let fail what e =
    Printf.eprintf "perfbench: %s raised %s\n%!" what (Printexc.to_string e);
    incr failed
  in
  let walls = Array.make (Array.length ops) 0. in
  let checks =
    Array.mapi
      (fun i op ->
        let t0 = now () in
        match around op with
        | settle -> (
            walls.(i) <- now () -. t0;
            match settle () with
            | check -> Some check
            | exception e -> fail "settle" e; None)
        | exception e ->
            walls.(i) <- now () -. t0;
            fail "op" e;
            None)
      ops
  in
  Array.iter
    (function
      | Some check -> (
          match check () with
          | true -> ()
          | false -> incr failed
          | exception e -> fail "check" e)
      | None -> ())
    checks;
  (walls, !failed)

(* One set-up, timed in a fresh process: dialect registration and
   everything the workload builds before its first op. *)
let part_setup w =
  let t0 = now () in
  P.register_dialects ();
  ignore (w.setup ());
  { attempted = 1; failed = 0; metrics = [ ("setup_s", now () -. t0) ] }

(* Runs this executable with [--part p], forwards its report lines and
   returns its parsed result line. *)
let child p =
  let args =
    [|
      Sys.executable_name; "--workload"; !workload; "--seed"; string_of_int !seed;
      "--seconds"; string_of_int !seconds; "--part"; p;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Inputs.fail "part %s exited abnormally" p);
  match List.rev lines with
  | last :: rest ->
      List.iter print_endline (List.rev rest);
      let j = match J.parse last with Ok j -> j | Error e -> Inputs.fail "part %s: %s" p e in
      let int k = Option.value ~default:0 (Option.bind (J.member k j) J.to_int) in
      let metrics =
        match J.member "metrics" j with
        | Some (J.Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                match J.member "value" v with Some (J.Num x) -> Some (k, x) | _ -> None)
              kvs
        | _ -> []
      in
      { attempted = int "attempted"; failed = int "failed"; metrics }
  | [] -> Inputs.fail "part %s printed nothing" p

let setup_runs = 9

(* The end-to-end part. Set-up time is the median of [setup_runs] fresh
   processes, each paying what a user's command pays once; this process
   then sets up once, untimed, and runs the op list untraced, so its
   peak RSS covers one set-up and the ops, as a user's run would. *)
let part_ops w =
  let setups =
    Array.init setup_runs (fun _ -> List.assoc "setup_s" (child "setup").metrics)
  in
  P.register_dialects ();
  let walls, failed = run_list (w.setup ()) in
  let rss = peak_rss_mb () in
  let n = Array.length walls in
  {
    attempted = n;
    failed;
    metrics =
      [
        ("ops_per_s", ratio (float_of_int (n - failed)) (sum walls));
        ("op_p50_s", quantile walls 0.5);
        ("op_p90_s", quantile walls 0.9);
        ("peak_rss_mb", rss);
        ("setup_s", quantile setups 0.5);
      ];
  }

(* A traced part: spans and counters around every op; per-layer values
   are per op. GC and region-registry deltas are taken on this domain. *)
let part_traced ~name make =
  P.register_dialects ();
  let ops = make () in
  let minor = ref 0. and major = ref 0 and regions = ref 0 in
  Spans.enabled := true;
  let around (op : op) =
    let mw0 = Gc.minor_words () and maj0 = (Gc.quick_stat ()).Gc.major_collections in
    let reg0 = Ir.Core.region_registry_size () in
    let settle = Spans.span "op" op in
    minor := !minor +. (Gc.minor_words () -. mw0);
    major := !major + ((Gc.quick_stat ()).Gc.major_collections - maj0);
    regions := !regions + (Ir.Core.region_registry_size () - reg0);
    settle
  in
  let walls, failed = run_list ~around ops in
  Spans.enabled := false;
  let n = float_of_int (Array.length ops) in
  let per x = ratio x n in
  let op_wall = Spans.busy "op" in
  Printf.printf "\n%s (%s, %d ops): per-op layer self time, busy time and counts\n"
    !workload name (Array.length ops);
  Printf.printf "  %-10s %8s %12s %12s %7s\n" "layer" "spans" "self-ms/op" "busy-ms/op" "self%";
  List.iter
    (fun (layer, (a : Spans.agg)) ->
      (* The op span's self time is the part no layer span covers. *)
      let layer, busy = if layer = "op" then ("other", a.Spans.self) else (layer, a.Spans.busy) in
      Printf.printf "  %-10s %8d %12.3f %12.3f %6.1f%%\n" layer a.Spans.count
        (1e3 *. per a.Spans.self) (1e3 *. per busy)
        (100. *. ratio a.Spans.self op_wall))
    (Spans.rows ());
  Printf.printf "  %-10s %8s %12.3f   (the self column sums to this)\n" "op wall" ""
    (1e3 *. per op_wall);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-28s %14.1f total %14.3f/op\n" k v (per v));
  let path = Printf.sprintf "%s/trace-%s-%s-%d.json" out_dir !workload name !seed in
  Spans.write_chrome path;
  Printf.printf "  spans: %s\n%!" path;
  let accesses = counter "machine.accesses" and machine_s = Spans.busy "machine" in
  let attempts = counter "rewriter.match_attempts" in
  {
    attempted = Array.length ops;
    failed;
    metrics =
      [
        ("op.wall_s", per op_wall);
        ("other.self_s", per (Spans.self "op"));
        ("traced_wall_s", sum walls);
        ("machine.busy_s", per machine_s);
        ("machine.accesses", per accesses);
        ("machine.ns_per_access", 1e9 *. ratio machine_s accesses);
        ("sim_maccess_per_s", ratio (accesses /. 1e6) op_wall);
        ("tune.busy_s", per (Spans.busy "tune"));
        ("tune.candidates", per (counter "tune.candidates"));
        ("tune.evaluated", per (counter "tune.evaluated"));
        ("tune.candidates_per_s", ratio (counter "tune.candidates") (Spans.busy "tune"));
        ("tune.distinct_ir_frac", ratio (counter "tune.distinct") (counter "tune.replayed"));
        ("met.busy_s", per (Spans.busy "met"));
        ("met.ir_ops", per (counter "met.ir_ops"));
        ("pipeline.busy_s", per (Spans.busy "pipeline"));
        ("rewriter.match_attempts", per attempts);
        ("rewriter.rewrites", per (counter "rewriter.rewrites"));
        ("rewriter.hit_ratio", ratio (counter "rewriter.rewrites") attempts);
        ("printer.busy_s", per (Spans.busy "printer"));
        ("printer.bytes", per (counter "printer.bytes"));
        ("batch.wall_s", per (counter "batch.wall_s"));
        ("batch.entry_s_sum", per (counter "batch.entry_s_sum"));
        ("batch.parallel_eff", per (counter "batch.parallel_eff"));
        ("batch.shard_skew", per (counter "batch.shard_skew"));
        ("batch.entries_failed", per (counter "batch.entries_failed"));
        ("cache.open_s", per (Spans.busy "cache"));
        ("cache.entries", per (counter "cache.entries"));
        ("cache.hits", per (counter "cache.hits"));
        ("cache.hit_ratio", ratio (counter "cache.hits") (counter "cache.manifest_entries"));
        ("gc.minor_mwords_per_op", per (!minor /. 1e6));
        ("gc.major_collections_per_op", per (float_of_int !major));
        ("ir.region_growth_per_op", per (float_of_int !regions));
      ];
  }

let end_to_end_units =
  [ ("ops_per_s", "1/s"); ("op_p50_s", "s"); ("op_p90_s", "s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let per_layer_units =
  [
    ("machine.busy_s", "s"); ("machine.accesses", "count"); ("machine.ns_per_access", "ns");
    ("sim_maccess_per_s", "1/s"); ("tune.busy_s", "s"); ("tune.candidates", "count");
    ("tune.evaluated", "count"); ("tune.candidates_per_s", "1/s");
    ("tune.distinct_ir_frac", "fraction"); ("met.busy_s", "s"); ("met.ir_ops", "count");
    ("pipeline.busy_s", "s"); ("rewriter.match_attempts", "count");
    ("rewriter.rewrites", "count"); ("rewriter.hit_ratio", "fraction");
    ("printer.busy_s", "s"); ("printer.bytes", "bytes"); ("batch.wall_s", "s");
    ("batch.entry_s_sum", "s"); ("batch.parallel_eff", "fraction");
    ("batch.shard_skew", "ratio"); ("batch.entries_failed", "count");
    ("cache.open_s", "s"); ("cache.entries", "count"); ("cache.hits", "count");
    ("cache.hit_ratio", "fraction"); ("gc.minor_mwords_per_op", "Mwords");
    ("gc.major_collections_per_op", "count"); ("ir.region_growth_per_op", "count");
    ("trace.overhead_frac", "fraction"); ("op_fail_frac", "fraction");
    ("op.wall_s", "s"); ("other.self_s", "s");
  ]

let unit_of k =
  match List.assoc_opt k end_to_end_units with
  | Some u -> u
  | None -> Option.value ~default:"" (List.assoc_opt k per_layer_units)

(* The result line. Parts run as children print internal metrics too,
   which have no unit. *)
let print_outcome o =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (o.failed = 0));
            ("attempted", J.num_int o.attempted);
            ("failed", J.num_int o.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, v) ->
                     (k, J.Obj [ ("value", J.Num v); ("unit", J.Str (unit_of k)) ]))
                   o.metrics) );
          ]))

(* ---- the traced run ---------------------------------------------------- *)

(* Per-layer metrics of the two-domain pools, taken from the [pool] part
   where a workload has one. *)
let pool_owned =
  [
    "tune.busy_s"; "tune.candidates"; "tune.evaluated"; "tune.candidates_per_s";
    "batch.wall_s"; "batch.entry_s_sum"; "batch.parallel_eff"; "batch.shard_skew";
    "batch.entries_failed";
  ]

(* The per-layer run: the untraced op list (for the tracing overhead),
   the traced list and, where the workload has one, the two-domain pool
   run, each in a fresh process. *)
let traced_run w =
  let untraced = child "ops" in
  let traced = child "traced" in
  let pool = Option.map (fun _ -> child "pool") w.pool in
  let get o k = Option.value ~default:0. (List.assoc_opt k o.metrics) in
  let untraced_wall =
    ratio
      (float_of_int (untraced.attempted - untraced.failed))
      (get untraced "ops_per_s")
  in
  let parts = untraced :: traced :: Option.to_list pool in
  let attempted = List.fold_left (fun acc o -> acc + o.attempted) 0 parts in
  let failed = List.fold_left (fun acc o -> acc + o.failed) 0 parts in
  let value = function
    | "trace.overhead_frac" -> ratio (get traced "traced_wall_s") untraced_wall -. 1.
    | "op_fail_frac" -> ratio (float_of_int failed) (float_of_int attempted)
    | k -> (
        match pool with
        | Some p when List.mem k pool_owned -> get p k
        | _ -> get traced k)
  in
  let metrics = List.map (fun (k, _) -> (k, value k)) per_layer_units in
  Printf.printf "\n%s per-layer metrics (per op)\n" !workload;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %16.6g\n" k v) metrics;
  print_outcome { attempted; failed; metrics }

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_int seconds, "S run length the op lists are sized for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--part", Arg.Set_string part, "setup|ops|traced|pool (internal: one part of a run)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some make -> make ()
    | None ->
        Inputs.fail "unknown workload %S (one of: %s)" !workload
          (String.concat ", " (List.map fst workloads))
  in
  Support.Atomic_io.mkdir_p out_dir;
  let finally () = rm_rf (Lazy.force work_dir) in
  Fun.protect ~finally (fun () ->
      match (!part, !trace) with
      | "ops", _ | "", 0 -> print_outcome (part_ops w)
      | "setup", _ -> print_outcome (part_setup w)
      | "traced", _ ->
          (* pluto-tune and batch-cold trace a one-domain replay. *)
          let name = if w.pool = None then "traced" else "replay" in
          print_outcome (part_traced ~name w.traced)
      | "pool", _ -> (
          match w.pool with
          | Some ops -> print_outcome (part_traced ~name:"pool" ops)
          | None -> Inputs.fail "workload %s has no two-domain part" !workload)
      | "", 1 -> traced_run w
      | p, t -> Inputs.fail "bad --part %S / --trace %d" p t)
