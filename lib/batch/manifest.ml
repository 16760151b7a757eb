type source = File of string | Inline of string

type entry = {
  e_name : string;
  e_source : source;
  e_schedule : Mlt.Pipeline.schedule;
}

type t = { m_entries : entry list }

let config_of_name = Mlt.Pipeline.config_of_name

let of_entries entries = { m_entries = entries }

let entries t = t.m_entries

let size t = List.length t.m_entries

let read_file path = In_channel.with_open_text path In_channel.input_all

let source_text e =
  match e.e_source with Inline src -> src | File path -> read_file path

let is_ir e =
  match e.e_source with
  | File path -> Filename.check_suffix path ".mlir"
  | Inline _ -> false

(* ---- JSON loading ------------------------------------------------------- *)

let fail path msg =
  Support.Diag.errorf
    ~loc:(Support.Loc.make ~file:path ~line:0 ~col:0)
    "manifest: %s" msg

let members = [ "name"; "path"; "source"; "pipeline"; "script"; "script_source" ]

let parse_entry ~path ~dir i json =
  let where msg = fail path (Printf.sprintf "entry %d: %s" i msg) in
  (match json with
  | Support.Json.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k members) then
            where
              (Printf.sprintf "unknown member %S (known: %s)" k
                 (String.concat ", " members)))
        fields
  | _ -> where "must be an object");
  let str_member key =
    match Support.Json.member key json with
    | Some (Support.Json.Str s) -> Some s
    | Some _ -> where (Printf.sprintf "field %S must be a string" key)
    | None -> None
  in
  let name =
    match str_member "name" with
    | Some n -> n
    | None -> where "missing required field \"name\""
  in
  let source =
    match (str_member "path", str_member "source") with
    | Some p, None ->
        let p =
          if Filename.is_relative p then Filename.concat dir p else p
        in
        File p
    | None, Some s -> Inline s
    | Some _, Some _ -> where "give either \"path\" or \"source\", not both"
    | None, None -> where "missing \"path\" or \"source\""
  in
  let schedule =
    match
      (str_member "pipeline", str_member "script", str_member "script_source")
    with
    | None, None, None -> Mlt.Pipeline.Config Mlt.Pipeline.Mlt_linalg
    | Some n, None, None -> (
        match config_of_name n with
        | Some c -> (
            (* A config without a script (pluto-best) cannot compile. *)
            match Mlt.Pipeline.steps_of_config c with
            | _ -> Mlt.Pipeline.Config c
            | exception Support.Diag.Error (_, msg) -> where msg)
        | None -> where (Printf.sprintf "unknown pipeline %S" n))
    | None, Some p, None -> (
        let p =
          if Filename.is_relative p then Filename.concat dir p else p
        in
        try
          Mlt.Pipeline.schedule_of_script_text
            ~name:("script:" ^ Filename.basename p)
            ~file:p (read_file p)
        with
        | Support.Diag.Error (loc, msg) ->
            where
              (Printf.sprintf "transform script %s: %s" p
                 (Support.Diag.to_string loc msg))
        | Sys_error msg -> where ("transform script: " ^ msg))
    | None, None, Some src -> (
        try Mlt.Pipeline.schedule_of_script_text src
        with Support.Diag.Error (loc, msg) ->
          where ("inline transform script: " ^ Support.Diag.to_string loc msg))
    | _ ->
        where
          "give at most one of \"pipeline\", \"script\" and \"script_source\""
  in
  { e_name = name; e_source = source; e_schedule = schedule }

let load path =
  let src = read_file path in
  let json =
    match Support.Json.parse src with
    | Ok v -> v
    | Error msg -> fail path msg
  in
  let dir = Filename.dirname path in
  match Support.Json.member "entries" json with
  | Some (Support.Json.List items) ->
      if items = [] then fail path "empty \"entries\" array";
      { m_entries = List.mapi (parse_entry ~path ~dir) items }
  | Some _ -> fail path "\"entries\" must be an array"
  | None -> fail path "missing \"entries\" array"
