(* A deliberately small JSON value type, printer and parser. The telemetry
   layer both writes JSON (metric snapshots, JSONL traces, the catapult
   exporter) and reads it back (`boundedreg trace summary`, the exporter
   well-formedness tests), and the project's dependency set has no JSON
   library — so this module is the single place the wire format lives.
   The parser accepts full JSON; the printer never emits anything the
   parser rejects (non-finite floats are printed as null). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Decimal digits written straight into the buffer, most significant
   first: no [string_of_int] (a C format call and a fresh string) per
   number. [min_int] has no positive negation, so it takes the slow
   path. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b i =
  if i >= 0 then add_digits b i
  else if i = min_int then Buffer.add_string b (string_of_int i)
  else begin
    Buffer.add_char b '-';
    add_digits b (-i)
  end

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most strings (event names, categories, argument keys) hold nothing
   to escape: one scan, then the whole string in one blit. *)
let escape_to b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let i = ref 0 in
  while !i < n && not (needs_escape (String.unsafe_get s !i)) do
    incr i
  done;
  if !i = n then Buffer.add_string b s
  else begin
    Buffer.add_substring b s 0 !i;
    for j = !i to n - 1 do
      match String.unsafe_get s j with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c
    done
  end;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
      else Buffer.add_string b "null"
  | Str s -> escape_to b s
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        vs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_to b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List vs -> Some vs | _ -> None
let member_int key j = Option.bind (member key j) to_int
let member_str key j = Option.bind (member key j) to_str
let member_list key j = Option.bind (member key j) to_list

(* {2 Parsing}

   The parser reads [s] by index: no option or closure per character.
   A string with no escape is taken with one scan and one [String.sub];
   only a string holding a backslash goes through a [Buffer]. *)

exception Parse_error of string

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at %d: %s" !pos msg)) in
  let skip_ws () =
    while !pos < n && is_ws s.[!pos] do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* The four hex digits of a [\u] escape at [!pos]. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = 0 to 3 do
      let d = hex_value s.[!pos + i] in
      if d < 0 then fail "bad \\u escape";
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  (* A [\u] escape, [!pos] just past the [u]: one code point, a
     surrogate pair combined into one; a lone surrogate is an error. *)
  let unicode_escape b =
    let at = !pos in
    let code = hex4 () in
    let lone () =
      pos := at;
      fail (Printf.sprintf "lone surrogate \\u%04x" code)
    in
    if code >= 0xdc00 && code <= 0xdfff then lone ()
    else if code >= 0xd800 && code <= 0xdbff then begin
      if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        lone ();
      pos := !pos + 2;
      let low = hex4 () in
      if low < 0xdc00 || low > 0xdfff then lone ();
      Buffer.add_utf_8_uchar b
        (Uchar.of_int (0x10000 + ((code - 0xd800) lsl 10) + (low - 0xdc00)))
    end
    else Buffer.add_utf_8_uchar b (Uchar.of_int code)
  in
  (* The escaped remainder of a string whose first [!pos - start] bytes
     were plain. *)
  let escaped_string start =
    let b = Buffer.create (!pos - start + 16) in
    Buffer.add_substring b s start (!pos - start);
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'; incr pos
          | '\\' -> Buffer.add_char b '\\'; incr pos
          | '/' -> Buffer.add_char b '/'; incr pos
          | 'n' -> Buffer.add_char b '\n'; incr pos
          | 'r' -> Buffer.add_char b '\r'; incr pos
          | 't' -> Buffer.add_char b '\t'; incr pos
          | 'b' -> Buffer.add_char b '\b'; incr pos
          | 'f' -> Buffer.add_char b '\012'; incr pos
          | 'u' ->
              incr pos;
              unicode_escape b
          | c -> fail (Printf.sprintf "bad escape %C" c));
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = ref start in
    while !i < n && match s.[!i] with '"' | '\\' -> false | _ -> true do
      incr i
    done;
    pos := !i;
    if !i >= n then fail "unterminated string";
    if s.[!i] = '"' then begin
      pos := !i + 1;
      String.sub s start (!i - start)
    end
    else escaped_string start
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let at c = !pos < n && s.[!pos] = c in
  let[@tail_mod_cons] rec elements () =
    skip_ws ();
    if at ',' then begin
      incr pos;
      let v = parse_value () in
      v :: elements ()
    end
    else begin
      expect ']';
      []
    end
  and parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else begin
          let first = parse_value () in
          List (first :: elements ())
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let acc = ref [ field () ] in
          skip_ws ();
          while at ',' do
            incr pos;
            acc := field () :: !acc;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !acc)
        end
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error e -> Error e
