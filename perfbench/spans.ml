(* Spans the harness records around its own calls into each layer.

   The program is not instrumented: every span wraps one public call
   the harness makes, so a traced run measures the same entry points
   an untraced run uses.  Spans nest per thread; a span's self time is
   its duration minus the time its children cover. *)

type span = {
  id : int;
  parent : int;  (** -1 at a thread's top level *)
  name : string;
  app : string;  (** "" when the span is not about one pipeline *)
  start : float;
  stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let everything : span list ref = ref []
let next_id = ref 0
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let with_span ?(app = "") name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    Mutex.lock lock;
    let id = !next_id in
    incr next_id;
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
    let parent = match stack with p :: _ -> p | [] -> -1 in
    Hashtbl.replace stacks tid (id :: stack);
    Mutex.unlock lock;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      Mutex.lock lock;
      recorded := { id; parent; name; app; start; stop } :: !recorded;
      Hashtbl.replace stacks tid stack;
      Mutex.unlock lock
    in
    Fun.protect ~finally:finish f
  end

(* Every span recorded since the last call, oldest first. *)
let take () =
  Mutex.lock lock;
  let s = List.rev !recorded in
  everything := !recorded @ !everything;
  recorded := [];
  Mutex.unlock lock;
  s

(* Add spans recorded by another process of the same run. *)
let import spans =
  Mutex.lock lock;
  everything := List.rev_append spans !everything;
  Mutex.unlock lock

(* Every span of the run so far. *)
let all () =
  ignore (take ());
  List.rev !everything

let duration s = s.stop -. s.start

let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) spans

let named ?app name spans =
  List.filter (fun s -> s.name = name && match app with None -> true | Some a -> s.app = a) spans
