//! The benchmark client's connection handling against an in-test
//! listener: reuse on keep-alive, a new connection after
//! `Connection: close` or an EOF-delimited body, one retry when a
//! reused connection turns out closed, and counted connect errors.

use perfbench::client::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;

/// How the test server answers one request.
#[derive(Clone, Copy)]
enum Reply {
    /// `Content-Length` body, connection kept open.
    KeepAlive,
    /// `Content-Length` body plus `Connection: close`, then close.
    Close,
    /// No `Content-Length`: the body ends when the server closes.
    Eof,
}

/// Reads one request (head plus `Content-Length` body); false at EOF.
fn read_request(r: &mut BufReader<TcpStream>) -> bool {
    let mut length = 0usize;
    let mut first = true;
    loop {
        let mut line = String::new();
        if r.read_line(&mut line).unwrap_or(0) == 0 {
            return false;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if !first {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap();
                }
            }
        }
        first = false;
    }
    let mut body = vec![0; length];
    r.read_exact(&mut body).unwrap();
    true
}

/// Serves one connection per entry of `script`, answering that
/// connection's requests with its replies in order, then closing it.
fn serve(script: Vec<Vec<Reply>>) -> (String, JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let mut answered = 0;
        for replies in script {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for reply in replies {
                if !read_request(&mut reader) {
                    break;
                }
                answered += 1;
                let body = format!("reply {answered}");
                let head = match reply {
                    Reply::KeepAlive => {
                        format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len())
                    }
                    Reply::Close => format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    ),
                    Reply::Eof => "HTTP/1.1 200 OK\r\n\r\n".to_owned(),
                };
                writer.write_all(head.as_bytes()).unwrap();
                writer.write_all(body.as_bytes()).unwrap();
                if !matches!(reply, Reply::KeepAlive) {
                    break;
                }
            }
        }
        answered
    });
    (addr, handle)
}

#[test]
fn keep_alive_reuses_one_connection() {
    let (addr, server) = serve(vec![vec![Reply::KeepAlive; 5]]);
    let mut client = Client::new(addr);
    for i in 1..=5 {
        let r = client.request("GET", "/x", None).unwrap();
        assert_eq!(
            (r.status, r.body.as_str(), r.closed),
            (200, format!("reply {i}").as_str(), false)
        );
    }
    assert_eq!(client.connects, 1);
    drop(client);
    assert_eq!(server.join().unwrap(), 5);
}

#[test]
fn connection_close_forces_a_new_connection_per_request() {
    let (addr, server) = serve(vec![vec![Reply::Close]; 3]);
    let mut client = Client::new(addr);
    for _ in 0..3 {
        let r = client.request("POST", "/y", Some("{}")).unwrap();
        assert!(r.closed);
        assert_eq!(r.status, 200);
    }
    assert_eq!(client.connects, 3);
    assert_eq!(server.join().unwrap(), 3);
}

#[test]
fn a_body_without_length_ends_at_eof_and_closes() {
    let (addr, server) = serve(vec![vec![Reply::Eof], vec![Reply::KeepAlive]]);
    let mut client = Client::new(addr);
    let r = client.request("GET", "/z", None).unwrap();
    assert_eq!((r.body.as_str(), r.closed), ("reply 1", true));
    let r = client.request("GET", "/z", None).unwrap();
    assert_eq!((r.body.as_str(), r.closed), ("reply 2", false));
    assert_eq!(client.connects, 2);
    drop(client);
    server.join().unwrap();
}

#[test]
fn a_reused_connection_closed_by_the_server_is_retried_once() {
    // The first connection answers one request as keep-alive and then
    // closes without a word, as an idle timeout would.
    let (addr, server) = serve(vec![vec![Reply::KeepAlive], vec![Reply::KeepAlive]]);
    let mut client = Client::new(addr);
    assert_eq!(client.request("GET", "/a", None).unwrap().body, "reply 1");
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(client.request("GET", "/b", None).unwrap().body, "reply 2");
    assert_eq!(client.connects, 2);
    assert_eq!(client.connect_errors, 0);
    drop(client);
    server.join().unwrap();
}

#[test]
fn connect_errors_are_counted_and_returned() {
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().port()
    };
    let mut client = Client::new(format!("127.0.0.1:{port}"));
    assert!(client.request("GET", "/", None).is_err());
    assert_eq!((client.connects, client.connect_errors), (0, 1));
}
