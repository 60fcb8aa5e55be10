#include <thread>

#include <gtest/gtest.h>

#include "net/framing.h"
#include "net/http.h"
#include "net/latency_model.h"
#include "net/socket.h"

namespace dstore {
namespace {

TEST(SocketTest, ConnectToClosedPortFails) {
  // Port 1 on loopback is almost certainly closed.
  auto result = Socket::ConnectTcp("127.0.0.1", 1);
  EXPECT_FALSE(result.ok());
}

TEST(SocketTest, RejectsUnparseableHost) {
  auto result = Socket::ConnectTcp("not a host", 80);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SocketTest, LoopbackEcho) {
  auto listener = ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&listener] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    uint8_t buf[5];
    ASSERT_TRUE(conn->ReadFull(buf, 5).ok());
    ASSERT_TRUE(conn->WriteFull(buf, 5).ok());
  });

  auto client = Socket::ConnectTcp("localhost", listener->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->WriteFull(ToBytes("hello")).ok());
  uint8_t echo[5];
  ASSERT_TRUE(client->ReadFull(echo, 5).ok());
  EXPECT_EQ(std::string(echo, echo + 5), "hello");
  server.join();
}

TEST(SocketTest, ReadFullDetectsEof) {
  auto listener = ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&listener] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    conn->Close();  // immediate close
  });
  auto client = Socket::ConnectTcp("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  uint8_t buf[1];
  EXPECT_TRUE(client->ReadFull(buf, 1).IsIOError());
  server.join();
}

TEST(FramingTest, RoundTripsFrames) {
  auto listener = ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&listener] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    for (int i = 0; i < 3; ++i) {
      auto frame = ReadFrame(&*conn);
      ASSERT_TRUE(frame.ok());
      ASSERT_TRUE(WriteFrame(&*conn, *frame).ok());
    }
  });
  auto client = Socket::ConnectTcp("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  for (const std::string& payload :
       std::vector<std::string>{"", "x", std::string(100000, 'q')}) {
    ASSERT_TRUE(WriteFrame(&*client, ToBytes(payload)).ok());
    auto echoed = ReadFrame(&*client);
    ASSERT_TRUE(echoed.ok());
    EXPECT_EQ(ToString(*echoed), payload);
  }
  server.join();
}

TEST(LatencyModelTest, NoLatencyIsZero) {
  NoLatency model;
  EXPECT_EQ(model.SampleNanos(12345), 0);
}

TEST(LatencyModelTest, FixedLatencyAddsBandwidthTerm) {
  FixedLatency model(1'000'000, 1e6);  // 1ms + 1MB/s
  EXPECT_EQ(model.SampleNanos(0), 1'000'000);
  // 1MB at 1MB/s = 1s.
  EXPECT_NEAR(static_cast<double>(model.SampleNanos(1'000'000)),
              1'000'000 + 1e9, 1e6);
}

TEST(LatencyModelTest, WanLatencyIsPositiveAndVariable) {
  WanLatency model(CloudStore1Profile(0.01), /*seed=*/1);
  int64_t min = INT64_MAX, max = 0;
  for (int i = 0; i < 500; ++i) {
    const int64_t sample = model.SampleNanos(1000);
    EXPECT_GT(sample, 0);
    min = std::min(min, sample);
    max = std::max(max, sample);
  }
  EXPECT_GT(max, min * 2) << "WAN latency must be variable";
}

TEST(LatencyModelTest, CloudStore1MoreVariableThanCloudStore2) {
  WanLatency store1(CloudStore1Profile(0.01), 7);
  WanLatency store2(CloudStore2Profile(0.01), 7);
  auto relative_spread = [](WanLatency& model) {
    std::vector<int64_t> samples;
    for (int i = 0; i < 2000; ++i) samples.push_back(model.SampleNanos(0));
    std::sort(samples.begin(), samples.end());
    return static_cast<double>(samples[samples.size() * 95 / 100]) /
           static_cast<double>(samples[samples.size() / 2]);
  };
  EXPECT_GT(relative_spread(store1), relative_spread(store2));
}

TEST(LatencyModelTest, CloudStore1SlowerThanCloudStore2) {
  WanLatency store1(CloudStore1Profile(0.01), 11);
  WanLatency store2(CloudStore2Profile(0.01), 11);
  double sum1 = 0, sum2 = 0;
  for (int i = 0; i < 1000; ++i) {
    sum1 += static_cast<double>(store1.SampleNanos(1000));
    sum2 += static_cast<double>(store2.SampleNanos(1000));
  }
  EXPECT_GT(sum1, sum2);
}

TEST(LatencyModelTest, ScalePreservesOrdering) {
  // Scaled-down profiles keep the same mean ratio (within noise).
  WanLatency full(CloudStore2Profile(1.0), 3);
  WanLatency scaled(CloudStore2Profile(0.1), 3);
  double sum_full = 0, sum_scaled = 0;
  for (int i = 0; i < 500; ++i) {
    sum_full += static_cast<double>(full.SampleNanos(0));
    sum_scaled += static_cast<double>(scaled.SampleNanos(0));
  }
  EXPECT_NEAR(sum_full / sum_scaled, 10.0, 1.5);
}

TEST(HttpTest, RequestRoundTrip) {
  auto listener = ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&listener] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    HttpConnection http(std::move(*conn));
    auto request = http.ReadRequest();
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request->method, "PUT");
    EXPECT_EQ(request->path, "/objects/abcd");
    EXPECT_EQ(request->headers.at("x-custom"), "value");
    EXPECT_EQ(ToString(request->body), "payload");

    HttpResponse response;
    response.status_code = 201;
    response.reason = "Created";
    response.headers["etag"] = "tag123";
    response.body = ToBytes("done");
    ASSERT_TRUE(http.WriteResponse(response).ok());
  });

  auto client = Socket::ConnectTcp("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  HttpConnection http(std::move(*client));
  HttpRequest request;
  request.method = "PUT";
  request.path = "/objects/abcd";
  request.headers["X-Custom"] = "value";  // case-insensitive on the peer
  request.body = ToBytes("payload");
  ASSERT_TRUE(http.WriteRequest(request).ok());
  auto response = http.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 201);
  EXPECT_EQ(response->reason, "Created");
  EXPECT_EQ(response->headers.at("etag"), "tag123");
  EXPECT_EQ(ToString(response->body), "done");
  server.join();
}

TEST(HttpTest, KeepAliveMultipleRequests) {
  auto listener = ServerSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&listener] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    HttpConnection http(std::move(*conn));
    for (int i = 0; i < 5; ++i) {
      auto request = http.ReadRequest();
      ASSERT_TRUE(request.ok());
      HttpResponse response;
      response.body = request->body;
      ASSERT_TRUE(http.WriteResponse(response).ok());
    }
  });

  auto client = Socket::ConnectTcp("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  HttpConnection http(std::move(*client));
  for (int i = 0; i < 5; ++i) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/echo";
    request.body = ToBytes("msg" + std::to_string(i));
    ASSERT_TRUE(http.WriteRequest(request).ok());
    auto response = http.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(ToString(response->body), "msg" + std::to_string(i));
  }
  server.join();
}

}  // namespace
}  // namespace dstore
