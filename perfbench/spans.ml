(* In-memory span recorder for the benchmark's traced runs.

   Spans are recorded only around the benchmark's own calls into each
   layer's public functions, on the calling domain, so they nest as a
   single stack. Nothing here touches [Ir.Trace] or [Ir.Metrics]: either
   would switch on the program's internal pass and pattern events and
   distort the layer times being measured.

   Per name the recorder keeps the busy time (sum of span durations) and
   the self time (duration minus the part covered by child spans); the
   raw B/E events are kept for a Chrome-trace file that
   [tools/trace_stats] reads. *)

type agg = { mutable count : int; mutable busy : float; mutable self : float }

type frame = { f_name : string; f_t0 : float; mutable f_child : float }

let enabled = ref false
let stack : frame list ref = ref []
let events : (string * char * float) list ref = ref []
let table : (string, agg) Hashtbl.t = Hashtbl.create 16

let agg name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { count = 0; busy = 0.; self = 0. } in
      Hashtbl.add table name a;
      a

let span name f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let fr = { f_name = name; f_t0 = t0; f_child = 0. } in
    stack := fr :: !stack;
    events := (name, 'B', t0) :: !events;
    let close () =
      let t1 = Unix.gettimeofday () in
      events := (name, 'E', t1) :: !events;
      stack := List.tl !stack;
      let dur = t1 -. fr.f_t0 in
      let a = agg name in
      a.count <- a.count + 1;
      a.busy <- a.busy +. dur;
      a.self <- a.self +. Float.max 0. (dur -. fr.f_child);
      match !stack with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ()
    in
    Fun.protect ~finally:close f
  end

let busy name = match Hashtbl.find_opt table name with Some a -> a.busy | None -> 0.
let self name = match Hashtbl.find_opt table name with Some a -> a.self | None -> 0.

(* Rows sorted by self time, with every recorded name. *)
let rows () =
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)

(* The Chrome-trace JSON object [{"traceEvents": [...]}], timestamps in
   microseconds from the first event. *)
let write_chrome path =
  let evs = List.rev !events in
  let base = match evs with (_, _, t) :: _ -> t | [] -> 0. in
  let ev (name, ph, t) =
    Support.Json.Obj
      [
        ("name", Support.Json.Str name);
        ("cat", Support.Json.Str "perfbench");
        ("ph", Support.Json.Str (String.make 1 ph));
        ("ts", Support.Json.Num ((t -. base) *. 1e6));
        ("pid", Support.Json.num_int 1);
        ("tid", Support.Json.num_int 1);
      ]
  in
  let doc =
    Support.Json.Obj
      [
        ("traceEvents", Support.Json.List (List.map ev evs));
        ("displayTimeUnit", Support.Json.Str "ms");
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Support.Json.to_string doc);
      output_char oc '\n')
