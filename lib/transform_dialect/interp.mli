(** The transform-script interpreter: applies a script's ops, in order,
    to a payload module (sequence semantics).

    Each op is destructured into a {!Script.step} and resolved by one
    exhaustive match over the step constructors, the tactic sets of
    [transform.raise] included. The transform dialect's op definitions
    live in the write-once-before-parallelism {!Ir.Dialect} registry:
    register them on the spawning domain before worker domains interpret
    scripts.

    Observability: every step runs inside an {!Ir.Trace} span (category
    ["transform"]) and emits an [Analysis] remark when it applied to
    nothing — the per-op inapplicability note that makes a silently
    useless schedule debuggable. *)

open Ir

(** A resolved step: label, source location (for remarks), and the
    applier. The applier returns how many times the step applied to a
    payload root (0 = inapplicable). *)
type compiled = {
  c_name : string;
  c_loc : Support.Loc.t;
  c_apply : Core.op -> int;
}

(** [compile script] resolves every op of a script module; raises
    {!Support.Diag.Error} on a malformed script. Pattern-backed steps
    freeze their tactic sets here, once per compilation; the returned
    closures are safe to share read-only with workers. *)
val compile : Core.op -> compiled list

val compile_steps : Script.step list -> compiled list

(** [apply_step c payload] — one step, with its trace span and
    inapplicability remark; returns the application count. *)
val apply_step : compiled -> Core.op -> int

(** One {!Ir.Pass} per script op (named {!Script.step_name}), for
    running a script under an instrumented pass manager. *)
val passes_of_script : Core.op -> Pass.t list

val passes_of_steps : Script.step list -> Pass.t list

(** [run script payload] — compile and apply every step to [payload]
    (typically a function). The caller verifies the payload afterwards,
    as pipelines do. *)
val run : Core.op -> Core.op -> unit
