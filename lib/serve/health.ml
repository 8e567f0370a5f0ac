(* Health and readiness of a serve daemon.

   A snapshot is a plain record so in-process callers can assert on it,
   plus a wire encoding so the socket's `health` command ships the same
   fields. Readiness is the admission gate: only [Ready] admits; a
   [Draining] server finishes what it has and a
   [Stopped] one has joined its workers. *)

module Wire = Vega_robust.Wire

type state = Starting | Ready | Draining | Stopped

let state_name = function
  | Starting -> "starting"
  | Ready -> "ready"
  | Draining -> "draining"
  | Stopped -> "stopped"

let state_of_name = function
  | "starting" -> Some Starting
  | "ready" -> Some Ready
  | "draining" -> Some Draining
  | "stopped" -> Some Stopped
  | _ -> None

type snapshot = {
  h_state : state;
  h_queue_depth : int;
  h_queue_cap : int;
  h_busy : int;  (* requests executing on a worker right now *)
  h_domains : int;
  h_accepted : int;
  h_rejected : int;
  h_completed : int;  (* replies delivered, including Failed *)
  h_deadline_hits : int;  (* supervisor deadline trips, all workers *)
  h_breaker_open : bool;  (* any worker breaker Open or Half_open *)
  h_journal_records : int;  (* records appended this process; 0 ephemeral *)
  h_journal_lag : int;  (* accepted - completed: queued + in flight *)
  h_cancelled : int;  (* streams aborted by client cancel/disconnect *)
  h_epoch : int;  (* respawn generation: 0 first boot, +1 per restart *)
}

let to_fields h =
  [
    "health";
    state_name h.h_state;
    string_of_int h.h_queue_depth;
    string_of_int h.h_queue_cap;
    string_of_int h.h_busy;
    string_of_int h.h_domains;
    string_of_int h.h_accepted;
    string_of_int h.h_rejected;
    string_of_int h.h_completed;
    string_of_int h.h_deadline_hits;
    Wire.bool_to_field h.h_breaker_open;
    string_of_int h.h_journal_records;
    string_of_int h.h_journal_lag;
    string_of_int h.h_cancelled;
    string_of_int h.h_epoch;
  ]

let encode h = Wire.encode_line (to_fields h)

let of_fields = function
  | [
      "health"; state; depth; cap; busy; domains; accepted; rejected;
      completed; deadline_hits; breaker; records; lag; cancelled; epoch;
    ] -> (
      let i = Wire.int_of_field in
      match
        ( state_of_name state,
          (i depth, i cap, i busy, i domains),
          (i accepted, i rejected, i completed, i deadline_hits),
          (Wire.bool_of_field breaker, i records, i lag),
          (i cancelled, i epoch) )
      with
      | ( Some h_state,
          (Some h_queue_depth, Some h_queue_cap, Some h_busy, Some h_domains),
          ( Some h_accepted,
            Some h_rejected,
            Some h_completed,
            Some h_deadline_hits ),
          (Some h_breaker_open, Some h_journal_records, Some h_journal_lag),
          (Some h_cancelled, Some h_epoch) ) ->
          Some
            {
              h_state;
              h_queue_depth;
              h_queue_cap;
              h_busy;
              h_domains;
              h_accepted;
              h_rejected;
              h_completed;
              h_deadline_hits;
              h_breaker_open;
              h_journal_records;
              h_journal_lag;
              h_cancelled;
              h_epoch;
            }
      | _ -> None)
  | _ -> None

let decode line =
  match Wire.decode_line line with
  | Some fields -> of_fields fields
  | None -> None

let summary h =
  Printf.sprintf
    "state=%s queue=%d/%d busy=%d domains=%d accepted=%d rejected=%d \
     completed=%d deadline_hits=%d breaker_open=%b journal_records=%d \
     journal_lag=%d cancelled=%d epoch=%d"
    (state_name h.h_state) h.h_queue_depth h.h_queue_cap h.h_busy h.h_domains
    h.h_accepted h.h_rejected h.h_completed h.h_deadline_hits h.h_breaker_open
    h.h_journal_records h.h_journal_lag h.h_cancelled h.h_epoch
