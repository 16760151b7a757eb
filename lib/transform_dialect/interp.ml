open Ir
module T = Transforms
module A = Affine.Affine_ops
module D = Support.Diag

(* ---- payload measurements (application counts) --------------------------- *)

(* The same maximal-perfect-nest discovery [Loop_tile.tile_all] performs,
   as a read-only collection — used both to count tileable nests and to
   drive the per-dimension [sizes] variant. *)
let rec collect_nests acc (op : Core.op) =
  if A.is_for op then begin
    let loops = Affine.Loops.perfect_nest op in
    if List.length loops > 1 && Affine.Loops.nest_trip_counts loops <> None
    then loops :: acc
    else if List.length loops = 1 then
      List.fold_left collect_nests acc (Affine.Loops.body_ops op)
    else acc
  end
  else
    Array.fold_left
      (fun acc (r : Core.region) ->
        List.fold_left
          (fun acc (blk : Core.block) ->
            List.fold_left collect_nests acc (Core.ops_of_block blk))
          acc r.r_blocks)
      acc op.Core.o_regions

let tileable_nests root = List.rev (collect_nests [] root)

let count_ops_named root name =
  let n = ref 0 in
  Core.walk root (fun op -> if String.equal op.Core.o_name name then incr n);
  !n

let count_linalg_ops root =
  let n = ref 0 in
  Core.walk root (fun op ->
      if String.starts_with ~prefix:"linalg." op.Core.o_name then incr n);
  !n

(* ---- step appliers ------------------------------------------------------ *)

(* [Tile [s]] must stay byte-identical to [Loop_tile.tile_all ~size:s]
   (the Pluto elaboration depends on it), so the uniform case delegates
   to it; per-dimension sizes tile each discovered nest with the sizes
   truncated/padded (with 1 = untiled) to the nest's depth. *)
let tile sizes payload =
  let nests = tileable_nests payload in
  (match sizes with
  | [ size ] -> T.Loop_tile.tile_all payload ~size
  | sizes ->
      List.iter
        (fun loops ->
          let depth = List.length loops in
          let rec fit i = function
            | s :: rest when i < depth -> s :: fit (i + 1) rest
            | _ when i < depth -> List.init (depth - i) (fun _ -> 1)
            | _ -> []
          in
          T.Loop_tile.tile_nest loops ~sizes:(fit 0 sizes))
        nests);
  List.length nests

let interchange payload =
  let n = T.Interchange.vectorize_func payload in
  (* Interchange of reduction loops assumes reassociation: mark the code
     fast-math so the machine model may vectorize reductions, exactly as
     [Pluto.apply]'s vectorize step does. *)
  Core.walk payload (fun op ->
      if Core.is_func op then Core.set_attr op "fast_math" (Attr.Bool true));
  n

(* [counted count run]: apply [run], reporting what [count] measured on
   the payload beforehand. *)
let counted count run payload =
  let n = count payload in
  run payload;
  n

(* A pattern-backed step: the set is frozen here, once per script
   compilation, and shared read-only by every application. *)
let rewrite_with patterns =
  let frozen = Rewriter.freeze patterns in
  fun payload -> Rewriter.apply_greedily payload frozen

(* [applier ~loc step] runs once per script compilation; the returned
   closure applies the step to a payload root and returns how many times
   it applied (0 = inapplicable). *)
let applier ~loc : Script.step -> Core.op -> int = function
  | Tile sizes -> tile sizes
  | Interchange -> interchange
  | Fuse h -> T.Loop_fuse.run h
  | Unroll factor ->
      fun payload -> T.Loop_unroll.unroll_innermost payload ~factor
  | Lower_affine ->
      counted
        (fun payload -> List.length (Affine.Loops.all_loops payload))
        T.Lower_affine.run
  | Lower_linalg None -> counted count_linalg_ops T.Lower_linalg.run
  | Lower_linalg (Some size) ->
      counted count_linalg_ops (T.Lower_linalg.run_tiled ~size)
  | Blis_schedule blocking ->
      counted
        (fun payload -> count_ops_named payload "affine.matmul")
        (T.Blis_schedule.run ~blocking)
  | Raise "linalg" -> rewrite_with (T.Tactics.all ())
  | Raise "affine-matmul" -> rewrite_with (T.Tactics.affine_matmul ())
  | Raise "affine" -> T.Raise_scf.run
  | Raise other -> D.errorf ~loc "transform.raise: unknown set %S" other
  | Canonicalize fast_math -> T.Canonicalize.run ~fast_math
  | Dce -> T.Dce.run
  | Reorder_chains -> T.Raise_chain.reorder
  | To_blas -> T.To_blas.run

(* ---- compilation and application ----------------------------------------- *)

type compiled = {
  c_name : string;
  c_loc : Support.Loc.t;
  c_apply : Core.op -> int;
}

let compile script =
  let steps = Script.steps_of script in
  List.map2
    (fun (op : Core.op) step ->
      {
        c_name = Script.step_name step;
        c_loc = op.Core.o_loc;
        c_apply = applier ~loc:op.Core.o_loc step;
      })
    (Core.ops_of_block (Core.module_block script))
    steps

let compile_steps steps = compile (Script.of_steps steps)

let apply_step c payload =
  Trace.span ~cat:"transform" c.c_name (fun () ->
      let n = c.c_apply payload in
      if n = 0 && Remark.enabled () then
        Remark.remark ~loc:c.c_loc ~context:"transform" Remark.Analysis
          "%s did not apply: no matching construct in the payload" c.c_name;
      n)

let pass_of_compiled c =
  Pass.make ~name:c.c_name (fun payload -> ignore (apply_step c payload))

let passes_of_script script = List.map pass_of_compiled (compile script)
let passes_of_steps steps = List.map pass_of_compiled (compile_steps steps)

let run script payload =
  List.iter (fun c -> ignore (apply_step c payload)) (compile script)
