type arg =
  | A_str of string
  | A_int of int
  | A_float of float
  | A_bool of bool

type phase = Begin | End | Instant

type event = {
  ev_ts : float;
  ev_cat : string;
  ev_name : string;
  ev_phase : phase;
  ev_args : (string * arg) list;
}

type sink = event -> unit

(* Installed sinks, newest first, each keyed by a handle so [uninstall] is
   order-independent. The stack is domain-local (Domain.DLS): a sink
   installed by one compilation never observes events from a concurrent
   compilation on another domain, and installing/uninstalling never
   races. Handles are drawn from one atomic counter so they stay unique
   process-wide. The hot path is "no sinks installed": [emit] reads the
   domain-local slot and returns, so tracing costs nothing when
   disabled. *)
let sinks_key : (int * sink) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let next_handle = Atomic.make 0

type handle = int

let install sink =
  let h = 1 + Atomic.fetch_and_add next_handle 1 in
  Domain.DLS.set sinks_key ((h, sink) :: Domain.DLS.get sinks_key);
  h

let uninstall h =
  Domain.DLS.set sinks_key
    (List.filter (fun (h', _) -> h' <> h) (Domain.DLS.get sinks_key))

let with_sink sink f =
  let h = install sink in
  Fun.protect ~finally:(fun () -> uninstall h) f

let enabled () = Domain.DLS.get sinks_key <> []

let installed_count () = List.length (Domain.DLS.get sinks_key)

let dispatch sinks ev = List.iter (fun (_, sink) -> sink ev) sinks

let now () = Unix.gettimeofday ()

let emit ?(args = []) ~cat ~phase name =
  match Domain.DLS.get sinks_key with
  | [] -> ()
  | sinks ->
      dispatch sinks
        { ev_ts = now (); ev_cat = cat; ev_name = name; ev_phase = phase;
          ev_args = args }

let instant ?args ~cat name = emit ?args ~cat ~phase:Instant name
let begin_ ?args ~cat name = emit ?args ~cat ~phase:Begin name
let end_ ?args ~cat name = emit ?args ~cat ~phase:End name

(* [span] takes the end args lazily: they usually summarize what the body
   did (op counts, applications) and only exist once it has run. *)
let span ?args ?(end_args = fun () -> []) ~cat name f =
  if not (enabled ()) then f ()
  else begin
    begin_ ?args ~cat name;
    Fun.protect ~finally:(fun () -> end_ ~args:(end_args ()) ~cat name) f
  end

module Memory = struct
  type t = {
    capacity : int;
    buf : event Queue.t;
    mutable dropped : int;
    mutable handle : handle;
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Trace.Memory.create: capacity <= 0";
    let buf = Queue.create () in
    let t = { capacity; buf; dropped = 0; handle = 0 } in
    let sink ev =
      if Queue.length buf >= capacity then begin
        ignore (Queue.pop buf);
        t.dropped <- t.dropped + 1
      end;
      Queue.push ev buf
    in
    t.handle <- install sink;
    t

  let events t = List.of_seq (Queue.to_seq t.buf)
  let dropped t = t.dropped

  let clear t =
    Queue.clear t.buf;
    t.dropped <- 0

  let detach t = uninstall t.handle
end

(* ---- Chrome trace-event exporter ---------------------------------------- *)

module J = Support.Json

(* A non-finite float has no JSON spelling; it renders as [null]. *)
let arg_json = function
  | A_str s -> J.Str s
  | A_int i -> J.num_int i
  | A_float f -> if Float.is_finite f then J.Num f else J.Null
  | A_bool b -> J.Bool b

let phase_code = function Begin -> "B" | End -> "E" | Instant -> "i"

(* One trace event as a Chrome trace-event object; [ts] is microseconds
   since [t0], kept to nanosecond resolution. *)
let event_json ~t0 ev =
  J.Obj
    ([
       ("name", J.Str ev.ev_name);
       ("cat", J.Str ev.ev_cat);
       ("ph", J.Str (phase_code ev.ev_phase));
       ("ts", J.Num (Float.round ((ev.ev_ts -. t0) *. 1e9) /. 1e3));
       ("pid", J.Num 1.);
       ("tid", J.Num 1.);
     ]
    @ (if ev.ev_phase = Instant then [ ("s", J.Str "t") ] else [])
    @
    if ev.ev_args = [] then []
    else
      [ ("args", J.Obj (List.map (fun (k, v) -> (k, arg_json v)) ev.ev_args)) ])

module Chrome = struct
  type t = {
    buf : Buffer.t;
    t0 : float;
    mutable count : int;
    mutable handle : handle;
  }

  let create () =
    let buf = Buffer.create 4096 in
    let t0 = now () in
    let t = { buf; t0; count = 0; handle = 0 } in
    let sink ev =
      if t.count > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (J.to_string (event_json ~t0 ev));
      t.count <- t.count + 1
    in
    t.handle <- install sink;
    t

  let count t = t.count

  let contents t =
    Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
      (Buffer.contents t.buf)

  (* Atomic commit: an exception (or kill) mid-export leaves either no
     trace file or the previous complete one — never a torn JSON that a
     viewer chokes on — and never leaks the channel. *)
  let write t path = Support.Atomic_io.write_file ~path (contents t)

  let detach t = uninstall t.handle
end
