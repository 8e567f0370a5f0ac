(** Append-only write-ahead log of a generation run.

    Every statement a run produces is journaled {e before} the run moves
    on, so a crash, OOM-kill or deadline anywhere in the run loses at
    most the function in flight. Each record is one checksummed wire
    line; the reader recovers the longest valid prefix of a torn or
    truncated log instead of failing, and resume compacts the file back
    to that prefix via an atomic tmp-file+rename.

    Journal replay is the only record of a run's progress: a function
    counts as completed only when all its statement records are followed
    by a matching [Func_end]. *)

type stmt = {
  j_fname : string;
  j_col : int;
  j_line : int;
  j_inst : int;
  j_score : float;
  j_tokens : string list;
  j_shape_ok : bool;
  j_level : Degrade.level;
}
(** Per-statement result, mirroring [Generate.gen_stmt] plus its owning
    function; scores are persisted as hex floats so replay is
    bit-identical. *)

type record =
  | Header of { version : int; target : string; fingerprint : string }
      (** first record of every journal; [fingerprint] ties the log to
          one prepared pipeline + target so resume cannot mix runs *)
  | Func_begin of string
      (** generation of the named function started (invalidates any
          earlier partial statement records for it) *)
  | Stmt of stmt
  | Func_end of { fname : string; confidence : float; n_stmts : int }
      (** the named function completed with this many statements *)
  | Fault_ev of { stage : string; fault : Fault.t; backtrace : string }
      (** a fault observed mid-run, written ahead like everything else *)

val version : int

val encode : record -> string
(** One wire line, no trailing newline. *)

val decode : string -> record option
(** [None] on checksum mismatch, unknown tag, or bad payload — never an
    exception. *)

(** {1 Writing} *)

type writer

exception Killed of int
(** Raised by {!append} when a [kill_at] budget is exhausted — the
    simulated hard crash of [vega-cli faultcheck --kill-at]. The payload
    is the number of records written by this writer. *)

val create : ?kill_at:int -> path:string -> record -> writer
(** Start a fresh journal holding only the given header record, written
    atomically (tmp file + rename), then opened for appending. *)

val open_append : ?kill_at:int -> path:string -> unit -> writer
(** Re-open an existing journal for appending (the resume path). *)

val append : writer -> record -> unit
(** Write one record and flush it. Mutex-guarded, so parallel generation
    domains may share one writer; replay keys pending statements by
    function name, so interleaved records from different functions
    resume correctly. With [kill_at = k], the [k]-th appended record is
    written and flushed first, then {!Killed} is raised: the record the
    crash interrupts is always durable, the run simply never gets to act
    on it. A killed writer stays dead — appends from any domain keep
    raising {!Killed} with the same payload. *)

val written : writer -> int
(** Records appended through this writer. *)

val close : writer -> unit

(** {1 Reading and recovery} *)

type recovery = {
  r_records : record list;  (** longest valid prefix, in write order *)
  r_torn : bool;
      (** the file held trailing bytes that failed checksum or framing —
          a record torn mid-write *)
}

val read : ?report:Report.t -> ?limit:int -> path:string -> unit -> recovery
(** Never raises on corrupt contents; a missing file reads as empty.
    Lines are read through a bounded accumulator: one longer than
    [limit] (default {!Wire.max_record_bytes}) is never fully allocated
    — reading stops at the preceding record, the tail counts as torn,
    and a [Record_oversize] fault is recorded in [report]. *)

val rewrite : path:string -> record list -> unit
(** Atomically replace the journal with exactly these records (tmp file
    + rename) — used to compact a torn tail away before resuming. *)

val tear : path:string -> unit
(** Destroy the second half of the final record in place, simulating a
    crash mid-write (test and [faultcheck] helper). *)

(** {1 Replay} *)

type completed = {
  c_fname : string;
  c_confidence : float;
  c_stmts : stmt list;  (** in generation order *)
}

val replay : record list -> record option * completed list
(** [(header, completed)] where [header] is the leading [Header] record
    if present, and [completed] lists every function whose statement
    records are sealed by a consistent [Func_end], in completion order.
    Partial trails (statements without a seal, or a seal whose statement
    count disagrees) are dropped — those functions regenerate on
    resume. *)
