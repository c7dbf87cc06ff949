(* The report's one JSON writer. Values are built as [Obs.Json.t] — the
   repo's JSON type — and every line written is parsed back with
   [Obs.Json.parse] before it leaves the process. *)

let number f =
  if not (Float.is_finite f) then invalid_arg "Emit.number: not a finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string (v : Obs.Json.t) =
  match v with
  | Obs.Json.Null -> "null"
  | Obs.Json.Bool b -> string_of_bool b
  | Obs.Json.Num f -> number f
  | Obs.Json.Str s -> string s
  | Obs.Json.Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obs.Json.Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> string k ^ ": " ^ to_string v) l)
    ^ "}"

(* Serialize, then prove the text is JSON the repo's own parser accepts. *)
let line v =
  let s = to_string v in
  match Obs.Json.parse s with
  | Ok _ -> s
  | Error m -> failwith ("Emit.line: emitted invalid JSON: " ^ m)

let num f = Obs.Json.Num f
let int i = Obs.Json.Num (float_of_int i)
let str s = Obs.Json.Str s
