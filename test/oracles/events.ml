open Obs

let event_fields (e : Sink.event) =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str (Sink.kind_to_string e.kind));
      ("ts", Json.Int e.ts);
      ("pid", Json.Int 0);
      ("tid", Json.Int e.track);
    ]
  in
  let scope =
    match e.kind with Sink.Instant -> [ ("s", Json.Str "t") ] | _ -> []
  in
  let args =
    match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ]
  in
  base @ scope @ args

let event_json e = Json.Obj (event_fields e)

let escape_bytewise s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
