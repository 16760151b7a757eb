type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string

type st = { src : string; mutable pos : int }

let fail st msg = raise (Malformed (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let read_hex4 () =
                  if st.pos + 4 > String.length st.src then
                    fail st "truncated \\u escape";
                  let value = ref 0 in
                  for k = st.pos to st.pos + 3 do
                    let d =
                      match st.src.[k] with
                      | '0' .. '9' as c -> Char.code c - Char.code '0'
                      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                      | _ -> fail st "invalid \\u escape"
                    in
                    value := (!value lsl 4) lor d
                  done;
                  st.pos <- st.pos + 4;
                  !value
                in
                let code = read_hex4 () in
                let code =
                  if code >= 0xD800 && code <= 0xDBFF then begin
                    (* High surrogate: must be followed by \uDC00-\uDFFF;
                       the pair encodes one supplementary code point. *)
                    if
                      st.pos + 2 > String.length st.src
                      || st.src.[st.pos] <> '\\'
                      || st.src.[st.pos + 1] <> 'u'
                    then fail st "unpaired high surrogate in \\u escape";
                    st.pos <- st.pos + 2;
                    let low = read_hex4 () in
                    if low < 0xDC00 || low > 0xDFFF then
                      fail st "unpaired high surrogate in \\u escape";
                    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                  end
                  else if code >= 0xDC00 && code <= 0xDFFF then
                    fail st "unpaired low surrogate in \\u escape"
                  else code
                in
                Buffer.add_utf_8_uchar buf (Uchar.of_int code)
            | c -> fail st (Printf.sprintf "invalid escape \\%C" c));
            go ())
    | Some c when Char.code c < 0x20 -> fail st "control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while p =
    let rec go () =
      match peek st with
      | Some c when p c ->
          advance st;
          go ()
      | _ -> ()
    in
    go ()
  in
  if peek st = Some '-' then advance st;
  consume_while (fun c -> c >= '0' && c <= '9');
  if peek st = Some '.' then begin
    advance st;
    consume_while (fun c -> c >= '0' && c <= '9')
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      consume_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st (Printf.sprintf "invalid number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

and parse_object st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          members ((key, v) :: acc)
      | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
      | _ -> fail st "expected ',' or '}' in object"
    in
    Obj (members [])
  end

and parse_array st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else begin
    let rec elements acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          elements (v :: acc)
      | Some ']' ->
          advance st;
          List.rev (v :: acc)
      | _ -> fail st "expected ',' or ']' in array"
    in
    List (elements [])
  end

let parse src =
  let st = { src; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then
      fail st "trailing characters after JSON value";
    Ok v
  with Malformed msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ---- writer -------------------------------------------------------------- *)

(* The escaping of every JSON string the tree emits (reports, pass
   stats, traces): printable ASCII and UTF-8 bytes pass
   through, the two JSON metacharacters and the common controls use their
   short escapes, and remaining control characters use \u00XX. *)
let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Integer-valued floats print as integers (counters stay "3", not "3.");
   other finite floats print with the fewest digits that round-trip. *)
let number_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string s);
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf "\":";
            go v)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let num_int i = Num (float_of_int i)

let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Some (int_of_float f)
  | _ -> None
