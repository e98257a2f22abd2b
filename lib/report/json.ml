type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no Infinity/NaN.  The shortest representation that parses
   back to the exact same double: result checksums cross the wire
   through this printer, and the chaos harness compares them bitwise
   against a local reference run, so lossy formatting would read as
   corruption. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          write b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  write b j;
  Buffer.contents b

(* Indented rendering, for files meant to be read and diffed. *)
let rec write_pretty b indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as j -> write b j
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          write_pretty b (indent + 2) item)
        items;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ');
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad;
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          write_pretty b (indent + 2) v)
        fields;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ');
      Buffer.add_char b '}'

let to_string_pretty j =
  let b = Buffer.create 4096 in
  write_pretty b 0 j;
  Buffer.add_char b '\n';
  Buffer.contents b

(* [close_out] inside the body, not in a [Fun.protect] finally: a
   failed last flush (ENOSPC) then raises the plain [Sys_error] callers
   catch rather than [Fun.Finally_raised]. *)
let to_file path j =
  let oc = open_out path in
  match
    output_string oc (to_string_pretty j);
    close_out oc
  with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      raise e

(* ------------------------------------------------------------------ *)
(* Parsing.  Recursive descent over the input string; accepts exactly
   the JSON this module emits (plus standard escapes), which is all
   the service protocol and the bench-merge loader need. *)

exception Parse_error of string

let fail_at s i msg =
  let line = ref 1 and col = ref 1 in
  for j = 0 to Stdlib.min (i - 1) (String.length s - 1) do
    if s.[j] = '\n' then begin incr line; col := 1 end else incr col
  done;
  raise (Parse_error (Printf.sprintf "line %d, column %d: %s" !line !col msg))

let is_digit c = c >= '0' && c <= '9'

let parse_string_body s i =
  let b = Buffer.create 16 in
  let n = String.length s in
  let i = ref i in
  let finished = ref false in
  while not !finished do
    if !i >= n then fail_at s !i "unterminated string";
    (match s.[!i] with
    | '"' -> finished := true
    | '\\' ->
        if !i + 1 >= n then fail_at s !i "unterminated escape";
        incr i;
        (match s.[!i] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            if !i + 4 >= n then fail_at s !i "truncated \\u escape";
            let hex = String.sub s (!i + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code >= 0 ->
                Buffer.add_utf_8_uchar b
                  (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
            | _ -> fail_at s !i ("bad \\u escape: " ^ hex));
            i := !i + 4
        | c -> fail_at s !i (Printf.sprintf "bad escape '\\%c'" c))
    | c -> Buffer.add_char b c);
    incr i
  done;
  (* [!i] is one past the closing quote. *)
  (Buffer.contents b, !i)

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let skip_ws () =
    while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr i
    done
  in
  let expect c =
    if !i >= n || s.[!i] <> c then fail_at s !i (Printf.sprintf "expected '%c'" c);
    incr i
  in
  let literal word v =
    let l = String.length word in
    if !i + l <= n && String.sub s !i l = word then begin i := !i + l; v end
    else fail_at s !i ("expected " ^ word)
  in
  let number () =
    let start = !i in
    if !i < n && s.[!i] = '-' then incr i;
    while !i < n && is_digit s.[!i] do incr i done;
    let is_float = ref false in
    if !i < n && s.[!i] = '.' then begin
      is_float := true;
      incr i;
      while !i < n && is_digit s.[!i] do incr i done
    end;
    if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
      is_float := true;
      incr i;
      if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
      while !i < n && is_digit s.[!i] do incr i done
    end;
    let text = String.sub s start (!i - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail_at s start ("bad number: " ^ text)
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> (
          (* out of int range: fall back to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail_at s start ("bad number: " ^ text))
  in
  let rec value () =
    skip_ws ();
    if !i >= n then fail_at s !i "unexpected end of input";
    match s.[!i] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' ->
        incr i;
        let str, j = parse_string_body s !i in
        i := j;
        String str
    | '[' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = ']' then begin incr i; List [] end
        else begin
          let items = ref [ value () ] in
          skip_ws ();
          while !i < n && s.[!i] = ',' do
            incr i;
            items := value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | '{' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = '}' then begin incr i; Obj [] end
        else begin
          let field () =
            skip_ws ();
            expect '"';
            let k, j = parse_string_body s !i in
            i := j;
            skip_ws ();
            expect ':';
            let v = value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while !i < n && s.[!i] = ',' do
            incr i;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | '-' | '0' .. '9' -> number ()
    | c -> fail_at s !i (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = value () in
  skip_ws ();
  if !i <> n then fail_at s !i "trailing garbage after JSON value";
  v

let of_string s = try Ok (parse s) with Parse_error msg -> Error msg

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | content -> ( match of_string content with Ok v -> Ok v | Error e -> Error (path ^ ": " ^ e))

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int_opt = function Int v -> Some v | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int v -> Some (float_of_int v)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
