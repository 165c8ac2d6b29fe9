// openSAGE -- the TCP socket transport backend.
//
// A socket mesh over loopback: every node owns one listening socket on
// 127.0.0.1 (ephemeral port) plus a reader thread; senders open one TCP
// connection per directed link on first use (lazily -- an idle link
// costs nothing) and write length-prefixed frames with TCP_NODELAY set.
// The reader thread poll()s its accepted connections, reassembles the
// byte stream into frames (the shared magic/len/checksum framing), and
// re-materializes pooled parcels for the mailbox sink. The loopback
// mesh is the single-host degenerate case of the cross-host topology:
// nothing below the port numbers would change with real peers.
#pragma once

#include <memory>

#include "net/transport.hpp"

namespace sage::net {

/// Builds the TCP loopback-mesh backend. Throws sage::CommError when
/// socket setup fails.
std::unique_ptr<Transport> make_tcp_transport(const TransportOptions& options,
                                              int node_count,
                                              BufferPool& pool,
                                              Transport::DeliverFn deliver);

}  // namespace sage::net
