#include "gen/benign.hpp"

#include <cstdio>

namespace senids::gen {

using util::Bytes;
using util::Prng;

namespace {

const char* const kPaths[] = {
    "/", "/index.html", "/news/today", "/api/v2/items", "/static/app.css",
    "/images/logo.png", "/search?q=weather", "/login", "/cart/checkout",
};

const char* const kHosts[] = {
    "www.example.com", "mail.campus.edu", "static.cdn.example.net",
    "intranet.corp.local", "api.shop.example.org",
};

const char* const kWords[] = {
    "the", "quick", "brown", "fox", "network", "packet", "server", "client",
    "report", "meeting", "schedule", "analysis", "update", "release", "data",
    "research", "campus", "library", "course", "project", "result", "paper",
};

void append(Bytes& out, std::string_view s) { out.insert(out.end(), s.begin(), s.end()); }

std::string sentence(Prng& prng, std::size_t words) {
  std::string s;
  for (std::size_t i = 0; i < words; ++i) {
    if (i) s.push_back(' ');
    s += kWords[prng.below(std::size(kWords))];
  }
  s.push_back('.');
  return s;
}

Bytes http_request(Prng& prng) {
  Bytes out;
  append(out, prng.chance(0.8) ? "GET " : "POST ");
  append(out, kPaths[prng.below(std::size(kPaths))]);
  append(out, " HTTP/1.1\r\nHost: ");
  append(out, kHosts[prng.below(std::size(kHosts))]);
  append(out, "\r\nUser-Agent: Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)\r\n"
              "Accept: text/html,*/*\r\nConnection: keep-alive\r\n\r\n");
  return out;
}

Bytes http_html(Prng& prng) {
  Bytes out;
  append(out, "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
              "<html><head><title>");
  append(out, sentence(prng, 3));
  append(out, "</title></head><body>");
  const std::size_t paras = 2 + prng.below(6);
  for (std::size_t i = 0; i < paras; ++i) {
    append(out, "<p>");
    append(out, sentence(prng, 8 + prng.below(24)));
    append(out, "</p>");
  }
  append(out, "</body></html>");
  return out;
}

Bytes http_json(Prng& prng) {
  Bytes out;
  append(out, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"items\":[");
  const std::size_t n = 1 + prng.below(12);
  char buf[96];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"id\":%llu,\"name\":\"%s\",\"qty\":%llu}",
                  i ? "," : "", static_cast<unsigned long long>(prng.below(100000)),
                  kWords[prng.below(std::size(kWords))],
                  static_cast<unsigned long long>(prng.below(50)));
    append(out, buf);
  }
  append(out, "]}");
  return out;
}

Bytes http_base64(Prng& prng) {
  static constexpr char kB64[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  Bytes out;
  append(out, "HTTP/1.1 200 OK\r\nContent-Transfer-Encoding: base64\r\n\r\n");
  const std::size_t lines = 4 + prng.below(20);
  for (std::size_t i = 0; i < lines; ++i) {
    for (int j = 0; j < 76; ++j) out.push_back(static_cast<std::uint8_t>(kB64[prng.below(64)]));
    append(out, "\r\n");
  }
  return out;
}

Bytes http_binary(Prng& prng) {
  // Image/zip-like: recognizable magic then high-entropy bytes. This is
  // the payload class most likely to contain accidental decoder-looking
  // byte runs, which is exactly what the FP evaluation must exercise.
  Bytes out;
  append(out, "HTTP/1.1 200 OK\r\nContent-Type: image/jpeg\r\n\r\n");
  out.push_back(0xff);
  out.push_back(0xd8);
  Bytes noise = prng.bytes(512 + prng.below(2048));
  out.insert(out.end(), noise.begin(), noise.end());
  return out;
}

Bytes dns_query(Prng& prng) {
  Bytes out;
  util::put_u16be(out, static_cast<std::uint16_t>(prng.next()));  // id
  util::put_u16be(out, 0x0100);                                   // RD
  util::put_u16be(out, 1);  // QDCOUNT
  util::put_u16be(out, 0);
  util::put_u16be(out, 0);
  util::put_u16be(out, 0);
  const std::string host = kHosts[prng.below(std::size(kHosts))];
  std::size_t start = 0;
  for (std::size_t i = 0; i <= host.size(); ++i) {
    if (i == host.size() || host[i] == '.') {
      out.push_back(static_cast<std::uint8_t>(i - start));
      append(out, std::string_view(host).substr(start, i - start));
      start = i + 1;
    }
  }
  out.push_back(0);
  util::put_u16be(out, 1);  // A
  util::put_u16be(out, 1);  // IN
  return out;
}

Bytes smtp(Prng& prng) {
  Bytes out;
  append(out, "EHLO client.example.com\r\nMAIL FROM:<alice@example.com>\r\n"
              "RCPT TO:<bob@example.org>\r\nDATA\r\nSubject: ");
  append(out, sentence(prng, 4));
  append(out, "\r\n\r\n");
  append(out, sentence(prng, 30 + prng.below(60)));
  append(out, "\r\n.\r\nQUIT\r\n");
  return out;
}

Bytes ascii_sled_lookalike(Prng& prng) {
  // ASCII-art/banner padding whose fill byte lands in 0x40..0x5f — the
  // range the extractor's is_nop_like() accepts wholesale. A run well
  // past extract::kMinSled guarantees a sled frame is *possible*, so
  // stage-0 must escalate; full analysis then finds nothing to match.
  static constexpr char kFill[] = {'@', 'C', 'H', 'U', 'X', 'Z', '^', '_'};
  Bytes out;
  append(out, "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n");
  const std::size_t banners = 2 + prng.below(4);
  for (std::size_t i = 0; i < banners; ++i) {
    const char fill = kFill[prng.below(std::size(kFill))];
    const std::size_t run = 24 + prng.below(56);
    out.insert(out.end(), run, static_cast<std::uint8_t>(fill));
    append(out, "\r\n");
    append(out, sentence(prng, 6 + prng.below(10)));
    append(out, "\r\n");
  }
  return out;
}

Bytes large_base64_blob(Prng& prng) {
  // A properly encoded multi-KB attachment (random plaintext): trips the
  // base64-region gate; the decode yields high-entropy bytes with no
  // code evidence almost always, so this kind straddles the
  // reject-after-decode / escalate-on-coincidence boundary.
  static constexpr char kB64[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  Bytes out;
  append(out, "Content-Type: application/octet-stream\r\n"
              "Content-Transfer-Encoding: base64\r\n\r\n");
  const Bytes raw = prng.bytes(1024 + prng.below(3072));
  std::size_t col = 0;
  for (std::size_t i = 0; i < raw.size(); i += 3) {
    std::uint32_t group = static_cast<std::uint32_t>(raw[i]) << 16;
    std::size_t have = 1;
    if (i + 1 < raw.size()) { group |= static_cast<std::uint32_t>(raw[i + 1]) << 8; ++have; }
    if (i + 2 < raw.size()) { group |= raw[i + 2]; ++have; }
    char quad[4] = {kB64[(group >> 18) & 63], kB64[(group >> 12) & 63],
                    static_cast<char>(have > 1 ? kB64[(group >> 6) & 63] : '='),
                    static_cast<char>(have > 2 ? kB64[group & 63] : '=')};
    for (char c : quad) {
      out.push_back(static_cast<std::uint8_t>(c));
      if (++col == 76) { append(out, "\r\n"); col = 0; }
    }
  }
  if (col) append(out, "\r\n");
  return out;
}

Bytes compressed_download(Prng& prng) {
  // gzip-framed high-entropy stream: binary-region frames are possible
  // (data-shaped), executable content is not.
  Bytes out;
  append(out, "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n\r\n");
  out.push_back(0x1f);
  out.push_back(0x8b);
  out.push_back(0x08);  // deflate
  out.push_back(0x00);
  Bytes noise = prng.bytes(1024 + prng.below(2048));
  out.insert(out.end(), noise.begin(), noise.end());
  return out;
}

}  // namespace

BenignPayload make_benign_payload(Prng& prng) {
  BenignPayload p;
  switch (prng.below(7)) {
    case 0:
      p.kind = BenignKind::kHttpRequest;
      p.dst_port = 80;
      p.data = http_request(prng);
      break;
    case 1:
      p.kind = BenignKind::kHttpHtml;
      p.dst_port = 80;
      p.data = http_html(prng);
      break;
    case 2:
      p.kind = BenignKind::kHttpJson;
      p.dst_port = 80;
      p.data = http_json(prng);
      break;
    case 3:
      p.kind = BenignKind::kHttpBase64;
      p.dst_port = 80;
      p.data = http_base64(prng);
      break;
    case 4:
      p.kind = BenignKind::kHttpBinary;
      p.dst_port = 80;
      p.data = http_binary(prng);
      break;
    case 5:
      p.kind = BenignKind::kDns;
      p.dst_port = 53;
      p.udp = true;
      p.data = dns_query(prng);
      break;
    default:
      p.kind = BenignKind::kSmtp;
      p.dst_port = 25;
      p.data = smtp(prng);
      break;
  }
  return p;
}

BenignPayload make_suspicious_benign_payload(Prng& prng) {
  BenignPayload p;
  p.dst_port = 80;
  switch (prng.below(3)) {
    case 0:
      p.kind = BenignKind::kAsciiSledLookalike;
      p.data = ascii_sled_lookalike(prng);
      break;
    case 1:
      p.kind = BenignKind::kLargeBase64Blob;
      p.dst_port = 25;
      p.data = large_base64_blob(prng);
      break;
    default:
      p.kind = BenignKind::kCompressedDownload;
      p.data = compressed_download(prng);
      break;
  }
  return p;
}

std::vector<BenignPayload> make_benign_corpus(Prng& prng, std::size_t total_bytes) {
  std::vector<BenignPayload> out;
  std::size_t acc = 0;
  while (acc < total_bytes) {
    out.push_back(make_benign_payload(prng));
    acc += out.back().data.size();
  }
  return out;
}

}  // namespace senids::gen
