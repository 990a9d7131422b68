/**
 * @file
 * Adversarial protocol input against the serving layer. Two surfaces:
 *
 *  - ServeHandler::handle_line (the parser/dispatcher): truncated,
 *    mutated, oversized, deeply nested, and type-confused JSON must
 *    every time yield one parseable {"status": "error", "code": ...}
 *    line — never a crash, hang, or garbage response — and the handler
 *    must still answer a ping afterwards;
 *  - ServerLoop over real sockets (the byte-stream layer): abrupt
 *    disconnects mid-line, oversized unterminated lines, and stalled
 *    writers must get the structured `too_long`/`timeout` responses
 *    documented in docs/SERVE_PROTOCOL.md and never wedge the daemon.
 *
 * The CI ASan+UBSan job runs this binary; everything here is
 * deterministic (fixed xorshift seed).
 */
#include <gtest/gtest.h>

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "harness/json.hpp"
#include "serve/listener.hpp"
#include "serve/serve.hpp"

using namespace morpheus;

namespace {

class TempCacheDir
{
  public:
    explicit TempCacheDir(const char *tag)
        : path_(std::string(::testing::TempDir()) + "morpheus_fuzz_" + tag)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Every response must parse as a JSON object with a status; errors must
 *  carry a machine-readable code. @return the status string. */
std::string
assert_well_formed(const std::string &response)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parse_json_value(response, v, error))
        << error << " in response: " << response;
    const std::string status = v.string_or("status", "");
    EXPECT_FALSE(status.empty()) << response;
    if (status == "error") {
        EXPECT_FALSE(v.string_or("code", "").empty()) << response;
    }
    return status;
}

/** handle_line must answer *something* well-formed and leave the handler
 *  alive (ping still works). */
void
expect_survives(ServeHandler &handler, const std::string &line)
{
    bool shutdown = false;
    assert_well_formed(handler.handle_line(line, shutdown));
    EXPECT_FALSE(shutdown) << "shutdown from: " << line.substr(0, 80);
    const std::string pong = handler.handle_line(R"({"op": "ping"})", shutdown);
    EXPECT_EQ(assert_well_formed(pong), "ok");
}

struct XorShift
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

} // namespace

// ---------------------------------------------------------------------------
// handle_line: hostile JSON

TEST(ServeFuzz, MalformedAndHostileJsonAlwaysYieldsStructuredErrors)
{
    TempCacheDir dir("hostile");
    ServeHandler handler(dir.path());
    bool shutdown = false;

    const std::vector<std::string> hostile = {
        "",
        "\0",
        "{",
        "}",
        "null",
        "true",
        "42",
        "\"op\"",
        "[]",
        "[{\"op\": \"ping\"}]",
        "{\"op\"}",
        "{\"op\":}",
        "{\"op\": }",
        "{\"op\": ping}",
        "{'op': 'ping'}",
        R"({"op": 5})",
        R"({"op": null})",
        R"({"op": ["ping"]})",
        R"({"op": {"nested": "ping"}})",
        R"({"op": "run", "app": 7})",
        R"({"op": "run", "app": {}})",
        R"({"op": "run", "app": "kmeans", "compute_sms": "many"})",
        R"({"op": "run", "app": "kmeans", "compute_sms": -3})",
        R"({"op": "run", "app": "kmeans", "compute_sms": 1e309})",
        R"({"op": "run", "app": "kmeans", "timeout_ms": NaN})",
        R"({"op": "scenario", "name": "kmeans_capacity_sweep", "jobs": Infinity})",
        R"({"op": "gc", "max_bytes": "everything"})",
        R"({"op": "gc", "max_bytes": -1e20})",
        R"({"op": "export"})",
        R"({"op": "import", "path": 3})",
        R"({"op": "import", "path": "/no/such/container.mrcx"})",
        std::string("{\"op\": \"ping\"") + std::string(4096, ' '),
        "\xff\xfe\x00\x01 binary garbage \x7f",
    };
    for (const std::string &line : hostile)
        expect_survives(handler, line);
    EXPECT_FALSE(shutdown);
}

TEST(ServeFuzz, DeepNestingIsRejectedNotRecursedInto)
{
    TempCacheDir dir("nesting");
    ServeHandler handler(dir.path());

    // 256 levels — far past the parser's depth cap; must error cleanly,
    // not overflow the stack.
    std::string deep = R"({"op": )";
    for (int i = 0; i < 256; ++i)
        deep += "[";
    for (int i = 0; i < 256; ++i)
        deep += "]";
    deep += "}";
    expect_survives(handler, deep);

    std::string deep_obj;
    for (int i = 0; i < 256; ++i)
        deep_obj += R"({"a": )";
    deep_obj += "1";
    for (int i = 0; i < 256; ++i)
        deep_obj += "}";
    expect_survives(handler, deep_obj);
}

TEST(ServeFuzz, TruncationsOfAValidRequestNeverCrash)
{
    TempCacheDir dir("truncate");
    ServeHandler handler(dir.path());

    const std::string valid = R"({"op": "run", "app": "kmeans", "system": )"
                              R"("Morpheus-ALL", "compute_sms": 8, "priority": 2, )"
                              R"("no_wait": true, "timeout_ms": 1000, "retries": 2})";
    // Every proper prefix is a truncated request; none may take the
    // handler down. (The full string is excluded — it would simulate.)
    for (std::size_t len = 0; len < valid.size(); ++len) {
        bool shutdown = false;
        assert_well_formed(handler.handle_line(valid.substr(0, len), shutdown));
        EXPECT_FALSE(shutdown);
    }
}

TEST(ServeFuzz, SeededByteMutationsNeverCrash)
{
    TempCacheDir dir("mutate");
    ServeHandler handler(dir.path());

    const std::string valid = R"({"op": "stats", "verbose": true, "x": [1, 2.5, )"
                              R"(null, "s"], "y": {"k": "v"}})";
    XorShift rng{0x9e3779b97f4a7c15ULL};
    for (int round = 0; round < 2000; ++round) {
        std::string mutated = valid;
        // 1-4 byte mutations: overwrite, or truncate the tail.
        const int edits = 1 + static_cast<int>(rng.next() % 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = rng.next() % mutated.size();
            if (rng.next() % 8 == 0) {
                mutated.resize(pos + 1);
            } else {
                mutated[pos] = static_cast<char>(rng.next() & 0xff);
            }
        }
        bool shutdown = false;
        const std::string response = handler.handle_line(mutated, shutdown);
        assert_well_formed(response);
        // A mutation can only ever reach harmless read-only ops here
        // ("stats" mutated stays "stats" or becomes garbage): shutdown
        // must be unreachable from this corpus.
        EXPECT_FALSE(shutdown) << mutated;
    }
}

// ---------------------------------------------------------------------------
// ServerLoop: hostile byte streams over real sockets

namespace {

int
connect_loopback(std::uint16_t port)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (::getaddrinfo("127.0.0.1", std::to_string(port).c_str(), &hints, &res) != 0 ||
        !res)
        return -1;
    const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    const bool ok = fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0;
    ::freeaddrinfo(res);
    if (!ok) {
        if (fd >= 0)
            ::close(fd);
        return -1;
    }
    return fd;
}

bool
send_all(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Reads until EOF; returns everything received. */
std::string
drain(int fd)
{
    std::string all;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof chunk)) > 0)
        all.append(chunk, static_cast<std::size_t>(n));
    return all;
}

/** One request over one fresh connection; asserts a response arrives.
 *  Reads exactly one line — waiting for EOF would stall until the
 *  server's idle timeout. */
std::string
roundtrip(std::uint16_t port, const std::string &line)
{
    const int fd = connect_loopback(port);
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(send_all(fd, line + "\n"));
    std::string all;
    char chunk[4096];
    ssize_t n;
    while (all.find('\n') == std::string::npos &&
           (n = ::read(fd, chunk, sizeof chunk)) > 0)
        all.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    const std::size_t nl = all.find('\n');
    EXPECT_NE(nl, std::string::npos) << "no response line for: " << line;
    return nl == std::string::npos ? all : all.substr(0, nl);
}

class LiveLoop
{
  public:
    LiveLoop(ServeHandler &handler, ServerLoop::Options opts)
        : loop_(handler, [&opts] {
              opts.tcp_spec = "127.0.0.1:0";
              return opts;
          }())
    {
        std::string error;
        EXPECT_TRUE(loop_.start(error)) << error;
        thread_ = std::thread([this] { loop_.run(); });
    }
    ~LiveLoop()
    {
        loop_.stop();
        thread_.join();
    }
    std::uint16_t port() const { return loop_.tcp_port(); }

  private:
    ServerLoop loop_;
    std::thread thread_;
};

} // namespace

TEST(ServeFuzz, AbruptDisconnectsNeverWedgeTheDaemon)
{
    TempCacheDir dir("abrupt");
    ServeHandler handler(dir.path());
    LiveLoop live(handler, {});

    // Partial line then hangup; empty connect-close; garbage then close.
    for (const std::string &partial :
         {std::string(R"({"op": "run", "app": )"), std::string(),
          std::string("\x01\x02\x03garbage without newline")}) {
        const int fd = connect_loopback(live.port());
        ASSERT_GE(fd, 0);
        if (!partial.empty()) {
            ASSERT_TRUE(send_all(fd, partial));
        }
        ::close(fd); // mid-line disconnect
    }

    // The daemon must still serve the next client immediately.
    EXPECT_EQ(assert_well_formed(roundtrip(live.port(), R"({"op": "ping"})")), "ok");
}

TEST(ServeFuzz, OversizedLineGetsStructuredTooLongAndClose)
{
    TempCacheDir dir("toolong");
    ServeHandler handler(dir.path());
    ServerLoop::Options opts;
    opts.max_line_bytes = 4096;
    LiveLoop live(handler, opts);

    const int fd = connect_loopback(live.port());
    ASSERT_GE(fd, 0);
    // An unterminated line just past the bound: the daemon must cut us
    // off with a too_long error rather than buffer forever. (Just past —
    // not megabytes — so the server's receive queue is empty when it
    // closes and the error response isn't lost to an RST.)
    ASSERT_TRUE(send_all(fd, std::string(5000, 'x')));
    const std::string all = drain(fd); // server closes after the error
    ::close(fd);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parse_json_value(all.substr(0, all.find('\n')), v, error))
        << error << ": " << all;
    EXPECT_EQ(v.string_or("status", ""), "error");
    EXPECT_EQ(v.string_or("code", ""), "too_long");

    EXPECT_EQ(assert_well_formed(roundtrip(live.port(), R"({"op": "ping"})")), "ok");
}

TEST(ServeFuzz, StalledMidLineWriterGetsStructuredTimeout)
{
    TempCacheDir dir("stall");
    ServeHandler handler(dir.path());
    ServerLoop::Options opts;
    opts.read_timeout_ms = 150;
    LiveLoop live(handler, opts);

    const int fd = connect_loopback(live.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, R"({"op": "ping)")); // ...and stall mid-line
    const std::string all = drain(fd);            // server times us out
    ::close(fd);
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parse_json_value(all.substr(0, all.find('\n')), v, error))
        << error << ": " << all;
    EXPECT_EQ(v.string_or("status", ""), "error");
    EXPECT_EQ(v.string_or("code", ""), "timeout");

    // An *idle* connection (no partial line) is closed quietly.
    const int idle = connect_loopback(live.port());
    ASSERT_GE(idle, 0);
    EXPECT_TRUE(drain(idle).empty());
    ::close(idle);

    EXPECT_EQ(assert_well_formed(roundtrip(live.port(), R"({"op": "ping"})")), "ok");
}

TEST(ServeFuzz, GarbageStormOverTcpLeavesEveryResponseWellFormed)
{
    TempCacheDir dir("storm");
    ServeHandler handler(dir.path());
    LiveLoop live(handler, {});

    XorShift rng{0xdeadbeefcafef00dULL};
    for (int round = 0; round < 64; ++round) {
        const int fd = connect_loopback(live.port());
        ASSERT_GE(fd, 0);
        // A burst of random bytes with newlines sprinkled in: every
        // line the server answers must be well-formed JSON.
        std::string burst;
        const int len = 64 + static_cast<int>(rng.next() % 512);
        for (int i = 0; i < len; ++i) {
            char c = static_cast<char>(rng.next() & 0xff);
            if (c == '\0')
                c = ' ';
            burst += (rng.next() % 24 == 0) ? '\n' : c;
        }
        burst += '\n';
        ASSERT_TRUE(send_all(fd, burst));
        // Half the time: vanish without reading; else shut down our
        // write side and drain the responses.
        if (rng.next() % 2 == 0) {
            ::shutdown(fd, SHUT_WR);
            const std::string all = drain(fd);
            std::size_t start = 0;
            while (start < all.size()) {
                std::size_t nl = all.find('\n', start);
                if (nl == std::string::npos)
                    nl = all.size();
                assert_well_formed(all.substr(start, nl - start));
                start = nl + 1;
            }
        }
        ::close(fd);
    }

    EXPECT_EQ(assert_well_formed(roundtrip(live.port(), R"({"op": "ping"})")), "ok");
}
