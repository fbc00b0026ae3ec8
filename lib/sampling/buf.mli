(** Little-endian binary codec primitives for the snapshot format.

    A {!writer} appends; a {!reader} consumes a string with a cursor.  Every
    read validates bounds and tags and raises {!Corrupt} (never an
    out-of-bounds crash) on malformed input — corrupted snapshot files must
    fail cleanly. *)

exception Corrupt of string

type writer
type reader

val writer : unit -> writer
val contents : writer -> string
val reader : string -> reader
val reader_pos : reader -> int
val at_end : reader -> bool
val expect_end : reader -> unit
(** Raise {!Corrupt} if trailing bytes remain. *)

val corrupt : string -> 'a

(** {1 Scalars} *)

val u8 : writer -> int -> unit
val read_u8 : reader -> int

val int : writer -> int -> unit
(** Full OCaml [int], as a little-endian signed 64-bit value. *)

val read_int : reader -> int

val i64 : writer -> int64 -> unit
val read_i64 : reader -> int64

val f64 : writer -> float -> unit
(** Bit-exact (via [Int64.bits_of_float]). *)

val read_f64 : reader -> float

val bool : writer -> bool -> unit
val read_bool : reader -> bool

val str : writer -> string -> unit
(** Length-prefixed. *)

val read_str : reader -> string

val bytes : writer -> Bytes.t -> unit
val read_bytes : reader -> Bytes.t

val tag4 : writer -> string -> unit
(** Exactly four raw bytes (section tags). *)

val read_tag4 : reader -> string

val raw : writer -> string -> unit
(** Append bytes with no framing (section payloads, already self-framed). *)

val read_raw : reader -> int -> string

(** {1 Composites} *)

val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val read_option : reader -> (reader -> 'a) -> 'a option

val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val read_list : reader -> (reader -> 'a) -> 'a list

val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val read_array : reader -> (reader -> 'a) -> 'a array

val int_array : writer -> int array -> unit
val read_int_array : reader -> int array

val float_array : writer -> float array -> unit
val read_float_array : reader -> float array

(** {1 Integrity} *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3 polynomial) of the whole string, in [0, 2^32). *)

(** {1 The sealed container}

    Every framed format (DSNP sections, DWRK, DART/DCKI library files,
    wire frames) seals its payload the same way:
    [payload length (i64 LE) | CRC-32 of payload (i64 LE) | payload]. *)

val seal : writer -> string -> unit

val read_sealed : ?max:int -> ?source:(int -> string) -> reader -> string
(** Read a sealed payload.  The length is bounded by [max] when given and
    the payload's CRC is checked; {!Corrupt} otherwise.  The payload is
    read from the reader, bounded by the input left, unless [source]
    supplies it: [source len] returns exactly [len] bytes from elsewhere
    (a socket after its frame header). *)

(** {1 Whole files} *)

val read_file : string -> string
(** The whole file; [Sys_error]/[End_of_file] as [open_in_bin] raises
    them. *)

val write_file : string -> string -> unit
(** Write-then-rename: the bytes go to [path ^ ".tmp"], which is renamed
    onto [path], so a reader sees the old file or the new one, never a
    torn one.  The channel is closed on every path and the temporary is
    removed if anything fails; the exception is re-raised. *)
