type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- writer --- *)

(* The one JSON string escaper: quote, backslash and every control byte
   are escaped; bytes >= 0x80 pass through, so UTF-8 text stays as is and
   the reader gets back the exact bytes. *)
let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let quote s =
  let b = Buffer.create (String.length s + 2) in
  add_quoted b s;
  Buffer.contents b

(* The one float rule: the shortest of %.15g/%.16g/%.17g that reads back
   to the same double, so a consumer re-folding the numbers gets the
   producer's bits. A trailing ".0" keeps integral values floats in typed
   consumers (and [Num] rather than [Int] on the way back). JSON has no
   Infinity/NaN: non-finite values (empty histogram min/max) print as
   0.0. *)
let float_repr v =
  if not (Float.is_finite v) then "0.0"
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p v in
      if float_of_string s = v then Some s else None
    in
    let s =
      match exact 15 with
      | Some s -> s
      | None -> (
        match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" v)
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* Containers shallower than [wide] put one member per line, indented
   two spaces per level; deeper ones go inline. *)
let rec write b ~wide ~depth v =
  let container opn cls item l =
    let pad d = String.make (2 * d) ' ' in
    let multi = depth < wide in
    Buffer.add_char b opn;
    if multi then Buffer.add_string b ("\n" ^ pad (depth + 1));
    List.iteri
      (fun i x ->
        if i > 0 then
          Buffer.add_string b (if multi then ",\n" ^ pad (depth + 1) else ", ");
        item x)
      l;
    if multi then Buffer.add_string b ("\n" ^ pad depth);
    Buffer.add_char b cls
  in
  let value = write b ~wide ~depth:(depth + 1) in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f -> Buffer.add_string b (float_repr f)
  | Str s -> add_quoted b s
  | Arr [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | Arr l -> container '[' ']' value l
  | Obj l ->
    container '{' '}'
      (fun (k, x) ->
        add_quoted b k;
        Buffer.add_string b ": ";
        value x)
      l

let to_string v =
  let b = Buffer.create 1024 in
  write b ~wide:2 ~depth:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_line v =
  let b = Buffer.create 256 in
  write b ~wide:0 ~depth:0 v;
  Buffer.contents b

(* --- reader --- *)

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

(* Recursive descent over the raw string with a cursor; no lexer pass.
   The grammar is small enough that the cursor-based form stays direct. *)
let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail !pos (Printf.sprintf "expected %c, got %c" c got)
    | None -> fail !pos (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  (* Exactly four hex digits: int_of_string alone would also take '_'. *)
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match text.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail i "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail !pos "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail !pos "truncated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            (* Code point to UTF-8; surrogate pairs are not recombined
               (the repo's writers never emit them). *)
            let cp = hex4 () in
            if cp < 0x80 then Buffer.add_char b (Char.chr cp)
            else if cp < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
            end
          | c -> fail !pos (Printf.sprintf "bad escape \\%c" c)));
        go ()
      | Some c when Char.code c < 0x20 ->
        fail !pos "unescaped control character in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    let integral =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s)
    in
    match (if integral then int_of_string_opt s else None) with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some v -> Num v
      | None -> fail start (Printf.sprintf "bad number %S" s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail !pos "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail !pos "expected , or ] in array"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected %c" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail !pos "trailing content after document";
    Ok v
  with Fail (p, msg) -> Error (Printf.sprintf "json: %s at byte %d" msg p)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function
  | Num v -> Some v
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_arr = function Arr l -> Some l | _ -> None
