(** The dispatch wire protocol: length-prefixed, CRC-framed messages over a
    stream socket.

    Every frame is [tag4 | payload length (i64 LE) | CRC-32 of payload
    (i64 LE) | payload] — the same framing discipline as the DSNP snapshot
    container, so a bit flip, truncation or desynchronized stream surfaces
    as a clean {!Darco_sampling.Buf.Corrupt}, never a crash or a silently
    wrong sample.

    Protocol version 5.  The dispatcher opens a connection per worker and
    handshakes with [Hello]; the worker's [Hello] reply advertises how many
    units it can run concurrently ([slots], its [-j] value).  Work units
    are {b multiplexed}: each [Work] frame carries a dispatcher-chosen [id]
    and the worker may hold several in flight, answering each with one
    [Result] or [Fail] carrying the same [id] ([id = -1] marks a
    connection-level [Fail] that is about no particular unit).

    Version-2 work units reference their checkpoint by digest instead of
    embedding it; a worker missing the checkpoint asks once with [Need] and
    the dispatcher answers with one [Ckpt] carrying the bytes, which the
    worker caches for the rest of the sweep.  Version 3 adds a span log
    to every [Result]: the worker's {!Darco_obs.Span} records for the
    unit ({!Darco_obs.Span.encode_list}; may be empty), which the
    dispatcher merges into its own bus so one trace carries the
    cross-machine timeline.  [recv] verifies a [Ckpt]
    frame's bytes against its claimed digest, so a wrong or tampered
    checkpoint is rejected at the wire, before it can reach the store.

    Version 4 adds the campaign-service frames ([Submit]/[Status]/
    [Artifact]/[Done]) spoken between sweep clients and a [darco serve]
    daemon ({!Darco_serve}); the worker protocol is unchanged.  Versions
    negotiate downward: a server answers a peer's [Hello {version}] with
    [min version protocol_version] and speaks that, rejecting peers below
    {!min_version} with a connection-level [Fail] — so a v3 client
    against a v4 server (or the reverse) still completes the v3
    conversation.

    Version 5 adds live telemetry: [Metrics] (METR) scrapes the serve
    daemon's registry snapshot and [Health] (HLTH) its liveness/readiness
    document, both carrying one JSON string (a client sends the frame
    with [json = ""], the server replies with it filled).  [Status]
    replies additionally carry the daemon's uptime and build version as
    an optional payload tail: a default-valued ([uptime_s = 0],
    [version = ""]) Status encodes byte-identically to its v4 form, and
    a v4 Status decodes with the defaults — so the committed v4 golden
    fixtures still hold on both sides.

    [send]/[recv] are safe on non-blocking sockets: partial reads and
    writes and [EAGAIN]/[EWOULDBLOCK] park in [select] (bounded by
    [deadline] when given) and resume, so a multiplexing peer never busy
    loops or tears a frame. *)

exception Timeout
(** A [deadline] passed mid-frame. *)

exception Closed
(** Peer closed the connection (EOF, ECONNRESET, EPIPE). *)

val protocol_version : int

val min_version : int
(** Oldest peer version still accepted by handshakes (see negotiation
    above); peers advertising less are failed and disconnected. *)

val max_frame : int
(** Upper bound on accepted payload sizes; larger length fields are
    rejected as corrupt before any allocation. *)

type msg =
  | Hello of { version : int; slots : int }
      (** handshake; the worker's reply advertises its concurrency in
          [slots] (the dispatcher sends [slots = 0]) *)
  | Ping
  | Pong
  | Work of { id : int; unit_ : string }
      (** an encoded {!Darco_sampling.Work.t}, tagged with the
          dispatcher's unit id *)
  | Result of { id : int; text : string; spans : string }
      (** the unit's JSON result text, plus the worker's encoded span log
          for the unit ({!Darco_obs.Span.encode_list}; possibly empty) *)
  | Fail of { id : int; reason : string }
      (** unit [id] failed on the worker; [id = -1] means the connection
          itself is being failed (protocol error, version mismatch) *)
  | Need of { digest : string }
      (** worker-to-dispatcher: ship me this checkpoint (sent at most once
          per digest per connection) *)
  | Ckpt of { digest : string; bytes : string }
      (** dispatcher-to-worker: the checkpoint content for [digest] *)
  | Submit of { id : int; sweep : string }
      (** client-to-server (v4): run this encoded {!Darco_serve.Campaign}
          sweep; [id] is a client-chosen submission handle echoed in every
          reply about it *)
  | Status of {
      id : int;
      state : string;
      done_ : int;
      total : int;
      hits : int;
      dispatched : int;
      uptime_s : int;
      version : string;
    }
      (** server-to-client (v4): progress of submission [id] ([done_] of
          [total] windows, [hits] served without dispatching, [dispatched]
          work units this submission put on the fleet).  A client sends
          [Status {id = -1; _}] to ask for service-wide counters.  To v5
          clients the reply also carries the daemon's [uptime_s] and build
          [version] (both default — 0, [""] — in requests and in v4
          conversations). *)
  | Artifact of { id : int; key : string; json : string }
      (** server-to-client (v4): one finished window artifact of
          submission [id] ([json = ""] marks a failed window, or a fetch
          miss).  A client sends [Artifact {id = offset; key = <encoded
          campaign>; json = ""}] to fetch one window from the library
          without submitting. *)
  | Done of { id : int; json : string }
      (** server-to-client (v4): submission [id] finished; [json] is the
          complete sweep document, byte-identical to what [darco sample
          --json] writes for the same parameters *)
  | Metrics of { json : string }
      (** v5 scrape: the serve daemon's live registry snapshot
          ({!Darco_obs.Registry.to_json}); a client sends [json = ""] to
          ask, the server replies with it filled *)
  | Health of { json : string }
      (** v5 liveness/readiness: uptime, version, per-worker keepalive
          state, queue depths, in-flight campaigns with planner CI
          progress, and library occupancy/hit-rate; request/reply
          convention as [Metrics] *)

val encode : msg -> string
(** The frame's exact wire bytes.  For callers that keep their own write
    queue (the dispatcher's per-worker outbox): write the string with
    ordinary non-blocking [write]s, resuming at the recorded offset —
    never interleave bytes of two frames on one socket. *)

val send : ?deadline:float -> Unix.file_descr -> msg -> unit
(** Write one frame, handling short writes, [EINTR] and — on non-blocking
    sockets — [EAGAIN] (parks in [select] until writable).  Raises
    {!Closed} if the peer is gone, {!Timeout} if [deadline] passes while
    blocked. *)

val recv : ?deadline:float -> Unix.file_descr -> msg
(** Read one frame, handling partial reads and [EAGAIN] the same way.
    [deadline] is an absolute [Unix.gettimeofday] time applied to every
    blocking step; raises {!Timeout} when it passes, {!Closed} on EOF,
    {!Darco_sampling.Buf.Corrupt} on a malformed frame (including a [Ckpt]
    whose bytes do not hash to its claimed digest). *)

val decode : string -> msg
(** Decode exactly one frame held in a string ({!encode}'s inverse) with
    {!recv}'s checks; a truncated frame or trailing bytes are
    {!Darco_sampling.Buf.Corrupt} too. *)
