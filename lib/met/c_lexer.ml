module D = Support.Diag

type token =
  | Ident of string
  | Int of int
  | Float of float
  | Kw_void
  | Kw_float
  | Kw_int
  | Kw_for
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Semi
  | Comma
  | Assign
  | Plus_assign
  | Minus_assign
  | Star_assign
  | Plus
  | Minus
  | Star
  | Slash
  | Lt
  | Le
  | Plus_plus
  | Eof

type t = { tok : token; loc : Support.Loc.t }

let keyword = function
  | "void" -> Some Kw_void
  | "float" | "double" -> Some Kw_float
  | "int" -> Some Kw_int
  | "for" -> Some Kw_for
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize ~file src =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let pos = ref 0 in
  let loc () = Support.Loc.make ~file ~line:!line ~col:!col in
  let advance () =
    (if !pos < n then
       if src.[!pos] = '\n' then (
         incr line;
         col := 1)
       else incr col);
    incr pos
  in
  let peek i = if !pos + i < n then Some src.[!pos + i] else None in
  let tokens = ref [] in
  let emit loc tok = tokens := { tok; loc } :: !tokens in
  let rec skip_ws () =
    match peek 0 with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance ();
        skip_ws ()
    | Some '/' when peek 1 = Some '/' ->
        while peek 0 <> None && peek 0 <> Some '\n' do
          advance ()
        done;
        skip_ws ()
    | Some '/' when peek 1 = Some '*' ->
        advance ();
        advance ();
        let rec close () =
          match (peek 0, peek 1) with
          | Some '*', Some '/' ->
              advance ();
              advance ()
          | Some _, _ ->
              advance ();
              close ()
          | None, _ -> D.errorf ~loc:(loc ()) "unterminated comment"
        in
        close ();
        skip_ws ()
    | _ -> ()
  in
  let lex_number start_loc =
    let start = !pos in
    while (match peek 0 with Some c -> is_digit c | None -> false) do
      advance ()
    done;
    let is_float =
      match (peek 0, peek 1) with
      | Some '.', Some c when is_digit c -> true
      | Some '.', (Some _ | None) -> true
      | _ -> false
    in
    if is_float then begin
      advance ();
      while (match peek 0 with Some c -> is_digit c | None -> false) do
        advance ()
      done;
      (match peek 0 with
      | Some 'f' -> advance ()
      | _ -> ());
      let text = String.sub src start (!pos - start) in
      let text =
        if String.length text > 0 && text.[String.length text - 1] = 'f' then
          String.sub text 0 (String.length text - 1)
        else text
      in
      emit start_loc (Float (float_of_string text))
    end
    else
      let text = String.sub src start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> emit start_loc (Int i)
      | None ->
          D.errorf ~loc:start_loc "integer literal %s does not fit in an int"
            text
  in
  let lex_ident start_loc =
    let start = !pos in
    while (match peek 0 with Some c -> is_ident_char c | None -> false) do
      advance ()
    done;
    let text = String.sub src start (!pos - start) in
    emit start_loc (match keyword text with Some kw -> kw | None -> Ident text)
  in
  let rec go () =
    skip_ws ();
    let l = loc () in
    match peek 0 with
    | None -> emit l Eof
    | Some c when is_digit c ->
        lex_number l;
        go ()
    | Some c when is_ident_start c ->
        lex_ident l;
        go ()
    | Some c ->
        let two tok =
          advance ();
          advance ();
          emit l tok
        in
        let one tok =
          advance ();
          emit l tok
        in
        (match (c, peek 1) with
        | '+', Some '+' -> two Plus_plus
        | '+', Some '=' -> two Plus_assign
        | '-', Some '=' -> two Minus_assign
        | '*', Some '=' -> two Star_assign
        | '<', Some '=' -> two Le
        | '(', _ -> one Lparen
        | ')', _ -> one Rparen
        | '{', _ -> one Lbrace
        | '}', _ -> one Rbrace
        | '[', _ -> one Lbracket
        | ']', _ -> one Rbracket
        | ';', _ -> one Semi
        | ',', _ -> one Comma
        | '=', _ -> one Assign
        | '+', _ -> one Plus
        | '-', _ -> one Minus
        | '*', _ -> one Star
        | '/', _ -> one Slash
        | '<', _ -> one Lt
        | _ -> D.errorf ~loc:l "unexpected character %C" c);
        go ()
  in
  go ();
  List.rev !tokens

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int i -> Printf.sprintf "integer %d" i
  | Float f -> Printf.sprintf "float %g" f
  | Kw_void -> "'void'"
  | Kw_float -> "'float'"
  | Kw_int -> "'int'"
  | Kw_for -> "'for'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Semi -> "';'"
  | Comma -> "','"
  | Assign -> "'='"
  | Plus_assign -> "'+='"
  | Minus_assign -> "'-='"
  | Star_assign -> "'*='"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Slash -> "'/'"
  | Lt -> "'<'"
  | Le -> "'<='"
  | Plus_plus -> "'++'"
  | Eof -> "end of input"
