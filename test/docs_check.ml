(* Documentation consistency checker, wired into `dune runtest`
   (alias @docscheck).  Three classes of rot it catches:

   - markdown cross-links (`[text](target)`) in README.md, DESIGN.md,
     EXPERIMENTS.md and docs/*.md whose target file no longer exists;
   - backticked repository paths (`lib/...`, `bin/...`, `test/...`,
     `bench/...`, `examples/...`) and bare root-level `*.txt`/`*.json`
     names in those documents that name no file or directory;
   - `pmdp <subcommand> --flag` mentions in those documents naming a
     subcommand or flag the CLI no longer accepts.  Ground truth is
     the built binary itself: every mentioned subcommand's
     `--help=plain` is run once and flags are matched against it.
     The flag-reference pages are held to the same ground truth, and
     a flag table's "Where" column to each subcommand it names.

   Usage: docs_check --pmdp path/to/pmdp.exe --root repo-root *)

let errors = ref 0

let err fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      Printf.eprintf "docs_check: %s\n" s)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Cross-links *)

let is_external t =
  let pre p = String.length t >= String.length p && String.sub t 0 (String.length p) = p in
  pre "http://" || pre "https://" || pre "mailto:" || pre "#"

let strip_fragment t = match String.index_opt t '#' with Some i -> String.sub t 0 i | None -> t

let check_links file content =
  let n = String.length content in
  let i = ref 0 in
  while !i < n - 1 do
    if content.[!i] = ']' && content.[!i + 1] = '(' then begin
      match String.index_from_opt content (!i + 2) ')' with
      | Some close ->
          let target = String.sub content (!i + 2) (close - !i - 2) in
          if target <> "" && not (is_external target) then begin
            let path = strip_fragment target in
            if path <> "" then begin
              let resolved = Filename.concat (Filename.dirname file) path in
              if not (Sys.file_exists resolved) then
                err "%s: broken link (%s): %s does not exist" file target resolved
            end
          end;
          i := close
      | None -> i := n
    end;
    incr i
  done

(* ------------------------------------------------------------------ *)
(* CLI flags: ground truth from the binary's own --help *)

let pmdp_exe = ref ""
let help_cache : (string, string option) Hashtbl.t = Hashtbl.create 8

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-'

(* Does [help] mention [flag] as a flag (preceded by non-word, followed
   by non-word)?  Matters for short flags: a bare substring "-j" also
   occurs inside longer option names. *)
let mentions_flag help flag =
  let hl = String.length help and fl = String.length flag in
  let ok = ref false in
  for i = 0 to hl - fl do
    if (not !ok) && String.sub help i fl = flag then begin
      let before_ok = i = 0 || not (is_word_char help.[i - 1] || help.[i - 1] = '-') in
      let after_ok = i + fl >= hl || not (is_word_char help.[i + fl]) in
      if before_ok && after_ok then ok := true
    end
  done;
  !ok

(* [Some help] when the subcommand exists, [None] when the CLI rejects
   it. *)
let help_of sub =
  match Hashtbl.find_opt help_cache sub with
  | Some h -> h
  | None ->
      let cmd =
        Printf.sprintf "%s %s --help=plain 2>/dev/null"
          (Filename.quote !pmdp_exe) (Filename.quote sub)
      in
      let ic = Unix.open_process_in cmd in
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      let h =
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 ->
            (* cmdliner answers --help on an unknown subcommand with
               the *group* help and exit 0; a real subcommand's help
               names itself "pmdp-<sub>" in its NAME section. *)
            let help = Buffer.contents b in
            if mentions_flag help ("pmdp-" ^ sub) then Some help else None
        | _ -> None
      in
      Hashtbl.add help_cache sub h;
      h

let is_subcommand_name s =
  s <> ""
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '-') s
  && s.[0] >= 'a'

(* Strip markdown/prose punctuation from token edges, keeping '-'
   (flags) and flag-value glue for later splitting. *)
let trim_token t =
  let junk c = match c with '`' | '"' | '\'' | ',' | '.' | ';' | ':' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '*' -> true | _ -> false in
  let n = String.length t in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi && junk t.[!lo] do incr lo done;
  while !hi > !lo && junk t.[!hi - 1] do decr hi done;
  String.sub t !lo (!hi - !lo)

let flag_prefix t =
  (* "--help=plain" -> "--help"; "--trace t.json" tokens are already
     split; keep only the leading option-looking prefix. *)
  let n = String.length t in
  let i = ref 0 in
  while !i < n && t.[!i] = '-' do incr i done;
  let dashes = !i in
  while !i < n && is_word_char t.[!i] do incr i done;
  if dashes >= 1 && dashes <= 2 && !i > dashes then Some (String.sub t 0 !i) else None

let split_ws s =
  String.split_on_char ' ' s |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let check_cli_line file lineno line =
  let toks = List.map trim_token (split_ws line) |> List.filter (fun t -> t <> "") in
  let rec scan sub = function
    | [] -> ()
    | t :: rest when t = "pmdp" || Filename.basename t = "pmdp.exe" ->
        (* `dune exec bin/pmdp.exe -- <sub>` separates with a bare --. *)
        let rest = match rest with "--" :: r -> r | r -> r in
        (match rest with
        | s :: r when is_subcommand_name s -> (
            match help_of s with
            | Some _ -> scan (Some s) r
            | None ->
                err "%s:%d: unknown pmdp subcommand %S" file lineno s;
                scan None r)
        | r -> scan sub r)
    | t :: rest -> (
        match (flag_prefix t, sub) with
        | Some flag, Some sub_name -> (
            match help_of sub_name with
            | Some help when not (mentions_flag help flag) ->
                err "%s:%d: pmdp %s does not accept %s" file lineno sub_name flag
            | _ -> ());
            scan sub rest
        | _ -> scan sub rest)
  in
  scan None toks

(* ------------------------------------------------------------------ *)
(* Repository paths.  `X.exe` stands for its source `X.ml`, `{a,b}`
   expands to both names, and a `*` component must match at least one
   entry. *)

let root = ref "."
let path_roots = [ "lib/"; "bin/"; "test/"; "bench/"; "examples/" ]

let rec expand_braces s =
  match (String.index_opt s '{', String.index_opt s '}') with
  | Some i, Some j when i < j ->
      let pre = String.sub s 0 i and post = String.sub s (j + 1) (String.length s - j - 1) in
      String.split_on_char ',' (String.sub s (i + 1) (j - i - 1))
      |> List.concat_map (fun alt -> expand_braces (pre ^ alt ^ post))
  | _ -> [ s ]

(* Does [pat] from index [i] match [s] from index [j], '*' matching
   any run of characters? *)
let rec glob_match pat i s j =
  if i = String.length pat then j = String.length s
  else if pat.[i] = '*' then
    glob_match pat (i + 1) s j || (j < String.length s && glob_match pat i s (j + 1))
  else j < String.length s && pat.[i] = s.[j] && glob_match pat (i + 1) s (j + 1)

(* The paths under the root that [path] names: one, or one per entry
   a `*` component matches. *)
let resolve path =
  List.fold_left
    (fun dirs comp ->
      if comp = "" then dirs
      else if String.contains comp '*' then
        List.concat_map
          (fun d ->
            match Sys.readdir d with
            | names ->
                Array.to_list names
                |> List.filter (fun n -> glob_match comp 0 n 0)
                |> List.map (Filename.concat d)
            | exception Sys_error _ -> [])
          dirs
      else List.map (fun d -> Filename.concat d comp) dirs)
    [ !root ] (String.split_on_char '/' path)

(* A backticked span that is one bare file name ending in .txt or
   .json (`BENCH_xeon.json`, not `t.json` inside a command line nor a
   `LOAD_<machine>.json` pattern) names a file at the repository root. *)
let root_file span =
  match split_ws span with
  | [ name ]
    when (Filename.check_suffix name ".txt" || Filename.check_suffix name ".json")
         && String.for_all (fun c -> is_word_char c || c = '_' || c = '.') name ->
      Some name
  | _ -> None

let check_paths file content =
  List.iteri
    (fun i line ->
      let spans = String.split_on_char '`' line |> List.filteri (fun k _ -> k mod 2 = 1) in
      List.iter
        (fun span ->
          match root_file span with
          | Some name when not (Sys.file_exists (Filename.concat !root name)) ->
              err "%s:%d: %s names no file at the repository root" file (i + 1) name
          | _ -> ())
        spans;
      spans
      |> List.concat_map split_ws
      |> List.iter (fun tok ->
             if List.exists (fun prefix -> String.starts_with ~prefix tok) path_roots then
               List.iter
                 (fun path ->
                   let path =
                     if Filename.check_suffix path ".exe" then
                       Filename.chop_suffix path ".exe" ^ ".ml"
                     else path
                   in
                   if not (List.exists Sys.file_exists (resolve path)) then
                     err "%s:%d: %s names no file or directory in the repository" file (i + 1)
                       path)
                 (expand_braces tok)))
    (String.split_on_char '\n' content)

(* ------------------------------------------------------------------ *)
(* Flag-reference documents: service.md and tuning.md document flags
   outside `pmdp <sub> ...` command lines (tables, prose), so the
   line-scan above cannot anchor them to a subcommand.  Sweep every
   backticked `-f`/`--flag` token in those files and require the
   union of the file's subcommands' --help to accept it — a flag we
   renamed or dropped fails the build instead of lingering in the
   docs. *)

let check_flag_inventory file content subs =
  let helps = List.filter_map help_of subs in
  if List.length helps <> List.length subs then
    err "%s: some of its reference subcommands (%s) have no --help" file
      (String.concat ", " subs)
  else begin
    let n = String.length content in
    let i = ref 0 in
    while !i < n do
      (if content.[!i] = '`' then
         match String.index_from_opt content (!i + 1) '`' with
         | None -> i := n - 1
         | Some close ->
             let toks = split_ws (String.sub content (!i + 1) (close - !i - 1)) in
             (* A span carrying its own `pmdp <sub> --flag` anchor is
                already validated (against the right subcommand) by
                the line scanner. *)
             let self_anchored =
               match toks with
               | p :: s :: _ -> p = "pmdp" && is_subcommand_name s
               | _ -> false
             in
             if not self_anchored then
             List.iter
               (fun tok ->
                 match flag_prefix (trim_token tok) with
                 | Some flag ->
                     (* only option-looking tokens: dashes then a
                        letter, so prose dashes and negative numbers
                        in examples stay out *)
                     let first =
                       let j = ref 0 in
                       while !j < String.length flag && flag.[!j] = '-' do incr j done;
                       if !j < String.length flag then Some flag.[!j] else None
                     in
                     if
                       (match first with Some c -> c >= 'a' && c <= 'z' | None -> false)
                       && not (List.exists (fun h -> mentions_flag h flag) helps)
                     then
                       err "%s: documented flag %s is not accepted by any of: pmdp %s" file
                         flag (String.concat ", pmdp " subs)
                 | None -> ())
               toks;
             i := close);
      incr i
    done
  end

(* The "Where" column of a flag table: a row that names subcommands in
   backticks there ([`run`, `bench`]) claims that each of them accepts
   every flag of its first column, so each claim is checked against
   that subcommand's own --help, not against the file's union. *)

let table_cells line =
  let line = String.trim line in
  if String.length line < 2 || line.[0] <> '|' then None
  else
    let cells = String.split_on_char '|' line in
    (* drop what precedes the leading bar and follows the trailing one *)
    Some (List.filteri (fun k _ -> k > 0 && k < List.length cells - 1) cells |> List.map String.trim)

let backticked cell = String.split_on_char '`' cell |> List.filteri (fun k _ -> k mod 2 = 1)

let check_where_column file content =
  (* in a table: the index of its "Where" column, -1 when it has none *)
  let where = ref None in
  List.iteri
    (fun i line ->
      match (table_cells line, !where) with
      | None, _ -> where := None
      | Some header, None ->
          where := Some (Option.value ~default:(-1) (List.find_index (( = ) "Where") header))
      | Some (flag_cell :: _ as cells), Some w when w > 0 && w < List.length cells ->
          let flags =
            backticked flag_cell |> List.concat_map split_ws
            |> List.filter_map (fun t -> flag_prefix (trim_token t))
          in
          List.iter
            (fun sub ->
              match help_of sub with
              | None -> err "%s:%d: the Where column names unknown subcommand %S" file (i + 1) sub
              | Some help ->
                  List.iter
                    (fun flag ->
                      if not (mentions_flag help flag) then
                        err "%s:%d: %s is listed for pmdp %s, which does not accept it" file
                          (i + 1) flag sub)
                    flags)
            (List.filter is_subcommand_name (backticked (List.nth cells w)))
      | Some _, Some _ -> ())
    (String.split_on_char '\n' content)

(* ------------------------------------------------------------------ *)
(* `pmdp list` inventory: both sections populated, every listed
   scheduler accepted by `pmdp schedule`, every listed pipeline
   actually buildable (cheap probe: `pmdp dot <app> --scale 32`). *)

let run_lines cmd =
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (List.rev !lines)
  | _ -> None

let check_pmdp_list () =
  match run_lines (Printf.sprintf "%s list 2>/dev/null" (Filename.quote !pmdp_exe)) with
  | None -> err "`pmdp list` failed"
  | Some lines ->
      let section = ref `Preamble in
      let apps = ref [] and schedulers = ref [] in
      List.iter
        (fun line ->
          match line with
          | "pipelines:" -> section := `Pipelines
          | "schedulers:" -> section := `Schedulers
          | line -> (
              match (split_ws line, !section) with
              | name :: _, `Pipelines -> apps := name :: !apps
              | [ name ], `Schedulers -> schedulers := name :: !schedulers
              | _ -> ()))
        lines;
      if !apps = [] then err "`pmdp list` names no pipelines";
      if !schedulers = [] then err "`pmdp list` names no schedulers";
      (match help_of "schedule" with
      | None -> err "`pmdp schedule --help` failed"
      | Some help ->
          List.iter
            (fun s ->
              if not (mentions_flag help s) then
                err "`pmdp list` names scheduler %S but `pmdp schedule --help` does not" s)
            !schedulers);
      List.iter
        (fun app ->
          let cmd =
            Printf.sprintf "%s dot %s --scale 32 >/dev/null 2>&1"
              (Filename.quote !pmdp_exe) (Filename.quote app)
          in
          if run_lines cmd = None then
            err "`pmdp list` names pipeline %S but `pmdp dot %s --scale 32` fails" app app)
        !apps

(* ------------------------------------------------------------------ *)

let check_file file =
  let content = read_file file in
  check_links file content;
  check_paths file content;
  List.iteri
    (fun i line -> check_cli_line file (i + 1) line)
    (String.split_on_char '\n' content);
  match Filename.basename file with
  | "service.md" -> check_flag_inventory file content [ "serve"; "load" ]
  | "tuning.md" ->
      check_flag_inventory file content [ "run"; "bench"; "serve"; "load"; "tune" ];
      check_where_column file content
  | "tuning-loop.md" -> check_flag_inventory file content [ "tune"; "serve"; "run" ]
  | _ -> ()

let () =
  let rec parse = function
    | "--pmdp" :: v :: rest ->
        pmdp_exe := v;
        parse rest
    | "--root" :: v :: rest ->
        root := v;
        parse rest
    | [] -> ()
    | a :: _ ->
        Printf.eprintf "docs_check: unknown argument %s\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !pmdp_exe = "" then begin
    Printf.eprintf "docs_check: --pmdp is required\n";
    exit 2
  end;
  let top = [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ] in
  let docs_dir = Filename.concat !root "docs" in
  let docs =
    Sys.readdir docs_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.sort compare
    |> List.map (Filename.concat docs_dir)
  in
  let files =
    List.filter_map
      (fun f ->
        let p = Filename.concat !root f in
        if Sys.file_exists p then Some p else None)
      top
    @ docs
  in
  List.iter check_file files;
  check_pmdp_list ();
  if !errors > 0 then begin
    Printf.eprintf "docs_check: %d error(s) in %d file(s) scanned\n" !errors (List.length files);
    exit 1
  end
  else Printf.printf "docs_check: %d files ok\n" (List.length files)
