(** The one persistent store: a directory of entries, each one or more
    files, with the write, quarantine and accounting rules every byte
    the system persists follows.  {!Pmdp_service.Disk_cache} (plans)
    and {!Pmdp_kernel.Kernel_cache} (compiled kernels) sit on it and
    keep only their formats and checks.

    - A durable write is {!put}: each file is written to
      [<name>.tmp.<pid>], closed with [close_out], and renamed to
      [<name>], in the order given.  While another put in this process
      is still writing the same file (a put nested in a writer, or two
      stores on one directory), the temp name gains a [.<k>] suffix,
      so no two puts share a temp file.
    - A failed write is any [Sys_error] or [Unix.Unix_error] on that
      path (disk full, permissions): the temp files are removed and
      one failure is counted.  Persistence is an optimization, so a
      failure never raises.
    - A bad entry is one its owner's checks refuse: {!quarantine}
      renames its files to [<name>.bad], out of the lookup namespace
      but on disk for inspection.

    Entries of different owners can share a directory as long as
    their file suffixes differ: {!list} only sees one suffix. *)

type t

val create : dir:string -> unit -> t
(** Create [dir] (and parents) if needed.
    @raise Invalid_argument when [dir] exists but is not a directory.
    @raise Unix.Unix_error when it cannot be created. *)

val path : t -> string -> string
(** [path t name] is the file [name] inside the store's directory. *)

val put : t -> (string * (out_channel -> unit)) list -> unit
(** Write one entry: for each [(name, fill)] in order, [fill] writes
    the file's bytes to a channel on its temp path, then the store
    closes and renames it.  Counts one store, or one failure. *)

val quarantine : t -> string list -> reason:string -> unit
(** Rename each named file that exists to [<name>.bad].  Counts one
    quarantine when any file moved (so repeating it counts nothing)
    and, when tracing, emits a [store.quarantine] counter and instant
    carrying the files and [reason]. *)

val tally : t -> 'a option -> 'a option
(** Count a lookup's result — a hit for [Some], a miss for [None] —
    and return it unchanged. *)

val list : t -> suffix:string -> string list
(** The names, without [suffix], of the files ending in [suffix],
    sorted.  Temp and [.bad] files never match. *)

type stats = {
  stores : int;  (** entries written *)
  store_failures : int;  (** writes that failed (disk full, perms) *)
  hits : int;  (** lookups that found a usable entry *)
  misses : int;  (** lookups that found nothing usable *)
  quarantined : int;  (** entries renamed to [.bad] *)
}

val stats : t -> stats
